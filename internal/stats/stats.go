// Package stats implements the summary statistics the paper reports:
// trimmed means (Fig. 7 drops the minimum and maximum of 10 runs), medians,
// and interquartile ranges for the error bars.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trimmedMean drops the ⌈frac·n⌉ smallest and largest samples each, then
// averages the rest — the paper's "10% trimmed mean" over 10 runs drops
// exactly the minimum and the maximum. If trimming would consume
// everything, it falls back to the plain mean.
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if frac <= 0 {
		return Mean(xs)
	}
	sorted := sortedCopy(xs)
	k := int(math.Ceil(frac * float64(len(sorted))))
	if 2*k >= len(sorted) {
		return Mean(sorted)
	}
	return Mean(sorted[k : len(sorted)-k])
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) with linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := sortedCopy(xs)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	w := rank - float64(lo)
	return sorted[lo]*(1-w) + sorted[hi]*w
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// iqr returns the 25th and 75th percentiles — the paper's error bars.
func iqr(xs []float64) (q1, q3 float64) {
	return Percentile(xs, 25), Percentile(xs, 75)
}

// Max returns the largest sample (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Summary bundles the paper's reporting statistics for one sample set.
type Summary struct {
	TrimmedMean float64 // 10% trimmed
	Median      float64
	Q1, Q3      float64
}

// Summarize computes the full Fig. 7-style summary.
func Summarize(xs []float64) Summary {
	q1, q3 := iqr(xs)
	return Summary{
		TrimmedMean: trimmedMean(xs, 0.10),
		Median:      Median(xs),
		Q1:          q1,
		Q3:          q3,
	}
}

func sortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}
