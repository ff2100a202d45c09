package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
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
			opts runOptions
		}{
			{"spark", false, runOptions{}},
			{"centralized", false, runOptions{Centralize: true}},
			{"aggshuffle", true, runOptions{}},
		} {
			job := buildRandomLineage(seed, rdd.NewGraph(), topo)
			if mode.agg {
				dag.AutoAggregate(job)
			}
			eng := New(topo, seed+1, Config{})
			res, err := eng.run(job, ActionSave, mode.opts)
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
		if len(st.Base.Deps) == 0 {
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
// compute noise and a seeded fault schedule: scripted reducer failures, then
// the same failures plus one worker killed at a random point of the clean
// run, and, where the clean run pushes, a push's source host killed inside
// that push's window. Recovery must reproduce the reference output, and no
// push may land from a host that has died.
func TestQuickRandomLineagesWithChaos(t *testing.T) {
	topo := topology.SixRegionEC2()
	workers := topo.Workers()
	for seed := int64(0); seed < 40; seed++ {
		want := canon(rdd.CollectLocal(buildRandomLineage(seed, rdd.NewGraph(), topo)))
		for _, mode := range []struct {
			name string
			agg  bool
			opts runOptions
		}{
			{"spark", false, runOptions{}},
			{"centralized", false, runOptions{Centralize: true}},
			{"aggshuffle", true, runOptions{}},
		} {
			build := func() *rdd.RDD {
				job := buildRandomLineage(seed, rdd.NewGraph(), topo)
				if mode.agg {
					dag.AutoAggregate(job)
				}
				return job
			}
			run := func(cfg Config) (*Result, []trace.Span) {
				t.Helper()
				cfg.ComputeNoise = 0.5
				cfg.Trace = true
				eng := New(topo, seed+1, cfg)
				res, err := eng.run(build(), ActionSave, mode.opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, mode.name, err)
				}
				if canon(res.Records) != want {
					t.Fatalf("seed %d %s (%d scripted failures, host failures %v): output diverges from reference",
						seed, mode.name, len(cfg.ScriptedFailures), cfg.HostFailures)
				}
				for _, f := range cfg.HostFailures {
					if sp, ok := landedFromDead(eng.Tracer.Spans(), f); ok {
						t.Fatalf("seed %d %s: push of stage %d part %d landed at t=%.2f from host %d, dead since t=%.2f",
							seed, mode.name, sp.Stage, sp.Part, sp.End, f.Host, f.At)
					}
				}
				return res, eng.Tracer.Spans()
			}
			rng := rand.New(rand.NewSource(seed))
			clean, spans := run(Config{})
			failures := faultSchedule(t, rng, build())
			run(Config{ScriptedFailures: failures})
			run(Config{ScriptedFailures: failures, HostFailures: []HostFailure{{
				Host: workers[rng.Intn(len(workers))],
				At:   clean.JCT * (0.1 + 0.8*rng.Float64()),
			}}})
			// Without scripted failures the run matches the clean one up to
			// the death, so the death falls inside the drawn push's window.
			var pushes []trace.Span
			for _, sp := range spans {
				if sp.Kind == trace.KindPush && sp.End > sp.Start {
					pushes = append(pushes, sp)
				}
			}
			if len(pushes) > 0 {
				p := pushes[rng.Intn(len(pushes))]
				run(Config{HostFailures: []HostFailure{{Host: p.Host, At: p.Start + (p.End-p.Start)*(0.1+0.8*rng.Float64())}}})
			}
		}
	}
}

// TestLostShuffleReadersGiveSlotsBack replays seven draws of a seeded chaos
// search (seeds 0–299, six trials each, a random worker killed on top of
// faultSchedule). Under Centralize every task is pinned to one datacenter,
// so a reader waiting for lost map output must not keep a slot there:
// waiting readers could fill all of its live slots, and the map tasks that
// would restore the output would never run.
func TestLostShuffleReadersGiveSlotsBack(t *testing.T) {
	topo := topology.SixRegionEC2()
	workers := topo.Workers()
	for _, c := range []struct {
		seed  int64
		trial int
	}{{55, 3}, {78, 4}, {103, 5}, {143, 0}, {159, 3}, {169, 1}, {231, 1}} {
		build := func() *rdd.RDD { return buildRandomLineage(c.seed, rdd.NewGraph(), topo) }
		run := func(cfg Config) *Result {
			t.Helper()
			cfg.ComputeNoise = 0.5
			res, err := New(topo, c.seed+1, cfg).run(build(), ActionSave, runOptions{Centralize: true})
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", c.seed, c.trial, err)
			}
			return res
		}
		clean := run(Config{})
		rng := rand.New(rand.NewSource(c.seed))
		var cfg Config
		for trial := 0; trial <= c.trial; trial++ {
			cfg.ScriptedFailures = faultSchedule(t, rng, build())
			cfg.HostFailures = []HostFailure{{
				Host: workers[rng.Intn(len(workers))],
				At:   clean.JCT * (0.1 + 0.8*rng.Float64()),
			}}
		}
		if got, want := canon(run(cfg).Records), canon(rdd.CollectLocal(build())); got != want {
			t.Fatalf("seed %d trial %d: output diverges from reference", c.seed, c.trial)
		}
	}
}
