package livecluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// TestSimulatorAndLiveClusterAgree drives seeded random lineages through
// the discrete-event simulator and the live TCP cluster — both consuming
// the same shared plan, both traced — and requires identical sorted outputs,
// which must also equal the in-memory reference. Each backend gets a freshly
// built lineage because evaluation mutates range-partitioner state. The raw
// trace of every run, the one its report reads, must be causal and carry one
// trace ID (rawTraceHolds).
func TestSimulatorAndLiveClusterAgree(t *testing.T) {
	topo := topology.SixRegionEC2()
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())))

		for _, sim := range []struct {
			name string
			agg  bool
		}{{"spark", false}, {"aggshuffle", true}} {
			job := rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())
			if sim.agg {
				dag.AutoAggregate(job)
			}
			eng := exec.New(topo, seed+1, exec.Config{Trace: true})
			res, err := eng.Run(job, exec.ActionSave, exec.RunOptions{})
			if err != nil {
				t.Logf("seed %d sim/%s: %v", seed, sim.name, err)
				return false
			}
			if canon(res.Records) != want {
				t.Logf("seed %d sim/%s diverges from reference", seed, sim.name)
				return false
			}
			if err := rawTraceHolds(eng.Tracer.Spans()); err != nil {
				t.Logf("seed %d sim/%s: %v", seed, sim.name, err)
				return false
			}
		}

		for _, mode := range []Mode{ModeFetch, ModePush} {
			rec := &trace.Recorder{}
			cluster, err := New(Config{Workers: 4, Mode: mode, Trace: rec})
			if err != nil {
				t.Logf("seed %d live/%v: %v", seed, mode, err)
				return false
			}
			out, _, err := cluster.Run(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers()))
			cluster.Close()
			if err != nil {
				t.Logf("seed %d live/%v: %v", seed, mode, err)
				return false
			}
			if canon(out) != want {
				t.Logf("seed %d live/%v diverges from simulator/reference", seed, mode)
				return false
			}
			if err := rawTraceHolds(rec.Spans()); err != nil {
				t.Logf("seed %d live/%v: %v", seed, mode, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// rawTraceHolds checks what a report relies on when it reads a run's trace
// as recorded: the run recorded spans, all of them carry the one trace ID,
// no two share a span ID, and no span starts before the span it links to,
// when that span is there.
func rawTraceHolds(spans []trace.Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	starts := map[trace.SpanID]float64{}
	for _, s := range spans {
		if s.Trace != spans[0].Trace || s.Trace == "" {
			return fmt.Errorf("spans carry trace IDs %q and %q, want one", spans[0].Trace, s.Trace)
		}
		if s.ID == 0 {
			continue
		}
		if _, dup := starts[s.ID]; dup {
			return fmt.Errorf("two spans carry ID %d", s.ID)
		}
		starts[s.ID] = s.Start
	}
	for _, s := range spans {
		if from, ok := starts[s.Link]; ok && s.Link != 0 && s.Start < from {
			return fmt.Errorf("%s span %d starts at %.9fs, before span %d it links to (%.9fs)", s.Kind, s.ID, s.Start, s.Link, from)
		}
	}
	return nil
}
