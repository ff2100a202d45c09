package perf

import (
	"math"
	"sort"

	"wanshuffle/internal/stats"
)

func sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (0-100) of values by linear
// interpolation between order statistics, as internal/stats computes it,
// but 0 for an empty slice: every number here ends up in JSON, which has
// no NaN.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return stats.Percentile(values, p)
}

// Median is the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so
// spreads computed here match the ones the benchmark driver computes.
// With fewer than two values all three equal the single value (or 0).
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise figure the bounds are judged by.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func sum(values []float64) float64 {
	var t float64
	for _, v := range values {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
