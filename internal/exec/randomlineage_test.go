package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// buildRandomLineage delegates to the shared seeded job generator, placing
// inputs on this topology's workers.
func buildRandomLineage(seed int64, g *rdd.Graph, topo *topology.Topology) *rdd.RDD {
	return rdd.RandomLineage(seed, g, topo.Workers())
}

// TestQuickRandomLineagesAllSchemes drives random jobs through the full
// simulated cluster under every scheme and checks the output against the
// in-memory reference evaluator.
func TestQuickRandomLineagesAllSchemes(t *testing.T) {
	topo := topology.SixRegionEC2()
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		want := canon(rdd.CollectLocal(buildRandomLineage(seed, rdd.NewGraph(), topo)))
		for _, mode := range []struct {
			name string
			agg  bool
			opts RunOptions
		}{
			{"spark", false, RunOptions{}},
			{"centralized", false, RunOptions{Centralize: true}},
			{"aggshuffle", true, RunOptions{}},
		} {
			job := buildRandomLineage(seed, rdd.NewGraph(), topo)
			if mode.agg {
				dag.AutoAggregate(job)
			}
			eng := New(topo, seed+1, Config{})
			res, err := eng.Run(job, ActionSave, mode.opts)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, mode.name, err)
				return false
			}
			if canon(res.Records) != want {
				t.Logf("seed %d %s: output diverges from reference", seed, mode.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// faultSchedule draws scripted first-attempt failures for the job target
// plans to: about 30 % of the tasks of every stage that reads a shuffle,
// each struck part-way through its compute.
func faultSchedule(t *testing.T, rng *rand.Rand, target *rdd.RDD) []FailureSpec {
	t.Helper()
	job, err := plan.BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	var failures []FailureSpec
	for _, st := range job.Stages() {
		if len(st.Boundaries) == 0 {
			continue
		}
		for part := 0; part < st.NumTasks; part++ {
			if rng.Float64() < 0.3 {
				failures = append(failures, FailureSpec{Stage: st.Output.Name, Part: part, Attempt: 1, AtFrac: 0.5 + 0.5*rng.Float64()})
			}
		}
	}
	return failures
}

// TestQuickRandomLineagesWithChaos runs random jobs under every scheme with
// compute noise and a seeded fault schedule: scripted reducer failures, and
// then the same failures plus one worker killed at a random point of the
// clean run. Recovery must reproduce the reference output.
func TestQuickRandomLineagesWithChaos(t *testing.T) {
	topo := topology.SixRegionEC2()
	workers := topo.Workers()
	for seed := int64(0); seed < 40; seed++ {
		want := canon(rdd.CollectLocal(buildRandomLineage(seed, rdd.NewGraph(), topo)))
		for _, mode := range []struct {
			name string
			agg  bool
			opts RunOptions
		}{
			{"spark", false, RunOptions{}},
			{"centralized", false, RunOptions{Centralize: true}},
			{"aggshuffle", true, RunOptions{}},
		} {
			build := func() *rdd.RDD {
				job := buildRandomLineage(seed, rdd.NewGraph(), topo)
				if mode.agg {
					dag.AutoAggregate(job)
				}
				return job
			}
			run := func(cfg Config) *Result {
				t.Helper()
				cfg.ComputeNoise = 0.5
				res, err := New(topo, seed+1, cfg).Run(build(), ActionSave, mode.opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, mode.name, err)
				}
				if canon(res.Records) != want {
					t.Fatalf("seed %d %s (%d scripted failures, host failures %v): output diverges from reference",
						seed, mode.name, len(cfg.ScriptedFailures), cfg.HostFailures)
				}
				return res
			}
			rng := rand.New(rand.NewSource(seed))
			clean := run(Config{})
			failures := faultSchedule(t, rng, build())
			run(Config{ScriptedFailures: failures})
			run(Config{ScriptedFailures: failures, HostFailures: []HostFailure{{
				Host: workers[rng.Intn(len(workers))],
				At:   clean.JCT * (0.1 + 0.8*rng.Float64()),
			}}})
		}
	}
}
