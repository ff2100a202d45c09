package stats

import (
	"fmt"
	"math"
	"sort"
)

// Bucket is one histogram cell: the count of samples x with x <= Le,
// exclusive of lower buckets. The final bucket of every Histogram has
// Le = +Inf, so no sample is ever dropped.
type Bucket struct {
	Le    float64
	Count int
}

// Histogram counts samples into fixed buckets defined by ascending upper
// edges. It backs the run report's straggler summaries and the obs
// registry's histogram metric. Not safe for concurrent use; wrap it (as
// obs's histogram does) when sharing across goroutines.
type Histogram struct {
	edges  []float64 // ascending upper bounds; implicit +Inf overflow last
	counts []int     // len(edges)+1: counts[len(edges)] is the overflow
	n      int
}

// NewHistogram builds a histogram over the given ascending upper edges. An
// implicit +Inf overflow bucket is always appended. Nil or empty edges give
// a single all-catching bucket. Panics on unsorted or NaN edges.
func NewHistogram(edges []float64) *Histogram {
	for i, e := range edges {
		if math.IsNaN(e) {
			panic("stats: NaN histogram edge")
		}
		if i > 0 && e <= edges[i-1] {
			panic(fmt.Sprintf("stats: histogram edges not ascending at %d: %v", i, edges))
		}
	}
	cp := make([]float64, len(edges))
	copy(cp, edges)
	return &Histogram{edges: cp, counts: make([]int, len(cp)+1)}
}

// LinearEdges returns n evenly spaced upper edges spanning (min, max]. It
// is the conventional way to build report histograms over task durations.
// n <= 0 or max <= min give a single edge at max.
func LinearEdges(min, max float64, n int) []float64 {
	if n <= 0 || max <= min {
		return []float64{max}
	}
	out := make([]float64, n)
	step := (max - min) / float64(n)
	for i := range out {
		out[i] = min + step*float64(i+1)
	}
	// Guard the last edge against float accumulation undershoot.
	out[n-1] = max
	return out
}

// Add counts one sample into its bucket (the first whose edge is >= x).
// NaN samples are ignored.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.edges, x)
	h.counts[i]++
	h.n++
}

// N returns the total number of samples counted.
func (h *Histogram) N() int { return h.n }

// Buckets exports the cells in edge order; the final bucket carries
// Le = +Inf.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i, c := range h.counts {
		le := math.Inf(1)
		if i < len(h.edges) {
			le = h.edges[i]
		}
		out[i] = Bucket{Le: le, Count: c}
	}
	return out
}
