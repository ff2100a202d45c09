// Benchmarks regenerating every figure and table of the paper's evaluation
// (Sec. V). Each benchmark runs the corresponding experiment end-to-end on
// the simulated six-region cluster and reports the paper's metrics as
// custom benchmark outputs:
//
//	JCT-s        job completion time (virtual seconds; Fig. 7)
//	crossDC-MB   cross-datacenter traffic (Fig. 8)
//	stageSum-s   summed stage spans, the stacked bar height (Fig. 9)
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Shape assertions live in internal/bench's tests; these benchmarks are
// the regeneration harness (one per figure row), so absolute values can be
// compared against EXPERIMENTS.md.
package wanshuffle_test

import (
	"fmt"
	"testing"

	"wanshuffle/internal/bench"
	"wanshuffle/internal/core"
	"wanshuffle/internal/workloads"
)

// benchOpts runs each benchmark iteration at the paper's full Table I
// modeled scale.
func benchOpts() bench.Options {
	return bench.Options{Runs: 1, Scale: 1.0}
}

// runWorkload executes one (workload, scheme) cell and reports the three
// quantities Figs. 7, 8 and 9 read off the same run.
func runWorkload(b *testing.B, w *workloads.Workload, scheme core.Scheme) {
	b.Helper()
	var jct, cross, stages float64
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunOne(w, scheme, int64(i+1), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		jct += rep.JCT
		cross += rep.CrossDCBytes / 1e6
		for _, st := range rep.Stages {
			stages += st.End - st.Start
		}
	}
	b.ReportMetric(jct/float64(b.N), "JCT-s")
	b.ReportMetric(cross/float64(b.N), "crossDC-MB")
	b.ReportMetric(stages/float64(b.N), "stageSum-s")
}

// --- Figs. 7, 8 and 9: the paper's sweep, all five workloads × three
// schemes. The three figures are views of the same runs, so each cell is
// simulated once. ---

func BenchmarkFigs7to9(b *testing.B) {
	for _, w := range workloads.All() {
		for _, scheme := range bench.Schemes() {
			w, scheme := w, scheme
			b.Run(fmt.Sprintf("%s/%v", w.Name, scheme), func(b *testing.B) {
				runWorkload(b, w, scheme)
			})
		}
	}
}

// --- Fig. 1: fetch-based vs proactive push micro-scenario ---

func BenchmarkFig1_Fetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fetch, _, err := bench.Fig1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fetch.JCT, "JCT-s")
		b.ReportMetric(fetch.ReduceStart, "reduceStart-s")
	}
}

func BenchmarkFig1_Push(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, push, err := bench.Fig1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(push.JCT, "JCT-s")
		b.ReportMetric(push.ReduceStart, "reduceStart-s")
	}
}

// --- Fig. 2: reducer-failure recovery ---

func BenchmarkFig2_FetchRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fetch, _, err := bench.Fig2(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fetch.Penalty, "penalty-s")
	}
}

func BenchmarkFig2_PushRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, push, err := bench.Fig2(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(push.Penalty, "penalty-s")
	}
}

// --- Sec. V-B: TeraSort with developer-placed transferTo ---

func BenchmarkTeraSortExplicit(b *testing.B) {
	variants := []struct {
		name   string
		w      *workloads.Workload
		scheme core.Scheme
	}{
		{"Auto", workloads.TeraSort(), core.SchemeAggShuffle},
		{"Explicit", workloads.TeraSortExplicit(), core.SchemeManual},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			runWorkload(b, v.w, v.scheme)
		})
	}
}

// --- Table I is configuration, not measurement; benchmark the workload
// generators so input-generation cost is tracked. ---

func BenchmarkTableIGenerators(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := w.MakeReference(workloads.Options{Seed: int64(i)}); len(got) == 0 {
					b.Fatal("empty reference")
				}
			}
		})
	}
}
