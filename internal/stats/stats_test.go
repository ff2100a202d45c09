package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
}

func TestTrimmedMeanDropsExtremes(t *testing.T) {
	// Ten runs with one outlier each way: 10% trim drops exactly min and
	// max, the paper's methodology.
	xs := []float64{100, 5, 6, 7, 8, 9, 10, 11, 12, 0.1}
	want := Mean([]float64{5, 6, 7, 8, 9, 10, 11, 12})
	if got := trimmedMean(xs, 0.10); !almost(got, want) {
		t.Fatalf("TrimmedMean = %v, want %v", got, want)
	}
}

func TestTrimmedMeanEdgeCases(t *testing.T) {
	if !almost(trimmedMean([]float64{3}, 0.10), 3) {
		t.Fatal("single sample trim fell back wrong")
	}
	if !almost(trimmedMean([]float64{1, 2}, 0.4), 1.5) {
		t.Fatal("over-trim did not fall back to mean")
	}
	if !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Fatal("empty trim not NaN")
	}
	if !almost(trimmedMean([]float64{1, 2, 3}, 0), 2) {
		t.Fatal("zero frac should be plain mean")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if !almost(Median(xs), 2.5) {
		t.Fatalf("Median = %v", Median(xs))
	}
	if !almost(Percentile(xs, 0), 1) || !almost(Percentile(xs, 100), 4) {
		t.Fatal("percentile extremes wrong")
	}
	q1, q3 := iqr(xs)
	if !almost(q1, 1.75) || !almost(q3, 3.25) {
		t.Fatalf("IQR = %v, %v", q1, q3)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile not NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{5, 1, 9}
	if Percentile(xs, 0) != 1 || Max(xs) != 9 {
		t.Fatal("min/max wrong")
	}
	if !math.IsNaN(Percentile(nil, 0)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty min/max not NaN")
	}
}

func TestStdDev(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single sample", []float64{2}, 0},
		{"identical samples", []float64{3, 3, 3, 3}, 0},
		{"two samples", []float64{2, 4}, math.Sqrt2},
		{"known set", []float64{2, 4, 4, 4, 5, 5, 7, 9}, math.Sqrt(32.0 / 7.0)},
		{"negative values", []float64{-1, 1}, math.Sqrt2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := StdDev(tc.xs); !almost(got, tc.want) {
				t.Fatalf("StdDev(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	s := Summarize(xs)
	if !almost(s.TrimmedMean, Mean([]float64{2, 3, 4, 5, 6, 7, 8, 9})) {
		t.Fatalf("summary trimmed mean = %v", s.TrimmedMean)
	}
	if s.Q1 > s.Median || s.Median > s.Q3 {
		t.Fatal("quartiles out of order")
	}
}

// Property: the trimmed mean is bounded by min and max, and percentiles
// are monotone in p.
func TestQuickStatisticsInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		tm := trimmedMean(xs, 0.1)
		if tm < Percentile(xs, 0)-1e-9 || tm > Max(xs)+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		q1, q3 := iqr(xs)
		return q1 <= q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile interpolation agrees with direct order statistics
// at integer ranks.
func TestQuickPercentileOrderStats(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		for i := range sorted {
			p := float64(i) / float64(len(sorted)-1) * 100
			if len(sorted) == 1 {
				p = 50
			}
			if !almost(Percentile(xs, p), sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
