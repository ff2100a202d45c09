package livecluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// simulate saves target on the simulator engine and returns its result.
func simulate(eng *exec.Engine, target *rdd.RDD) (*exec.Result, error) {
	results, err := eng.RunManyContext(context.Background(), []exec.JobSpec{{Target: target, Action: exec.ActionSave}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// TestSimulatorAndLiveClusterAgree drives seeded lineages — random ones,
// and PageRank's cached, iterative shape — through the discrete-event
// simulator and the live TCP cluster — both consuming the same shared plan,
// both traced, under the same two schemes — and requires identical sorted
// outputs, which must also equal the in-memory reference. Each backend gets a
// freshly built lineage because evaluation mutates range-partitioner state.
// The raw trace of every run, the one its report reads, must be causal and
// carry one trace ID (rawTraceHolds). A live fetched PageRank reads its
// cached link table's input shuffle once per reduce partition, not once per
// stage that reads the table (fetchedOnce).
func TestSimulatorAndLiveClusterAgree(t *testing.T) {
	topo := topology.SixRegionEC2()
	lineages := []struct {
		name  string
		build func(seed int64, g *rdd.Graph, hosts []topology.HostID) *rdd.RDD
	}{{"random", rdd.RandomLineage}, {"pagerank", cachedPageRank}}
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		for _, lin := range lineages {
			want := canon(rdd.CollectLocal(lin.build(seed, rdd.NewGraph(), topo.Workers())))
			for _, scheme := range []struct {
				name string
				agg  bool
			}{{"spark", false}, {"aggshuffle", true}} {
				// Each backend runs a fresh lineage through the one rewrite
				// that says push on both.
				lineage := func() *rdd.RDD {
					job := lin.build(seed, rdd.NewGraph(), topo.Workers())
					if scheme.agg {
						dag.AutoAggregate(job)
					}
					return job
				}
				run := fmt.Sprintf("seed %d %s/%s", seed, lin.name, scheme.name)
				eng := exec.New(topo, seed+1, exec.Config{Trace: true})
				res, err := simulate(eng, lineage())
				if err != nil {
					t.Logf("%s sim: %v", run, err)
					return false
				}
				if canon(res.Records) != want {
					t.Logf("%s sim diverges from reference", run)
					return false
				}
				if err := rawTraceHolds(eng.Tracer.Spans()); err != nil {
					t.Logf("%s sim: %v", run, err)
					return false
				}

				rec := &trace.Recorder{}
				cluster, err := New(Config{Workers: 4, Trace: rec})
				if err != nil {
					t.Logf("%s live: %v", run, err)
					return false
				}
				target := lineage()
				out, _, err := cluster.Run(target)
				cluster.Close()
				if err != nil {
					t.Logf("%s live: %v", run, err)
					return false
				}
				if canon(out) != want {
					t.Logf("%s live diverges from simulator/reference", run)
					return false
				}
				if err := rawTraceHolds(rec.Spans()); err != nil {
					t.Logf("%s live: %v", run, err)
					return false
				}
				if cached := cachedNode(target); cached != nil && !scheme.agg {
					if err := fetchedOnce(rec.Spans(), cached); err != nil {
						t.Logf("%s live: %v", run, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// cachedPageRank is PageRank's lineage (workloads.PageRank) in integers, so
// every backend's sums agree to the bit in whatever order they add: a link
// table grouped and cached, then three rounds of joining it with the ranks
// and reducing the contributions.
func cachedPageRank(seed int64, g *rdd.Graph, hosts []topology.HostID) *rdd.RDD {
	const pages, parts = 40, 4
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]rdd.InputPartition, len(hosts))
	for p := 0; p < pages; p++ {
		in := &inputs[p%len(inputs)]
		in.Host, in.ModeledBytes = hosts[p%len(hosts)], 1<<20
		for l := 1 + rng.Intn(4); l > 0; l-- {
			in.Records = append(in.Records, rdd.KV(fmt.Sprintf("page%02d", p), fmt.Sprintf("page%02d", rng.Intn(pages))))
		}
	}
	links := g.Input("pr.edges", inputs).GroupByKey("pr.links", parts).Cache()
	ranks := links.Map("pr.ranks0", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, 1000) })
	for it := 1; it <= 3; it++ {
		contribs := links.Join(fmt.Sprintf("pr.join%d", it), ranks, parts).
			MapMulti(fmt.Sprintf("pr.contribs%d", it), func(p rdd.Pair, emit func(rdd.Pair)) {
				pair := p.Value.([]rdd.Value)
				dests := pair[0].([]rdd.Value)
				for _, d := range dests {
					emit(rdd.KV(d.(string), pair[1].(int)/len(dests)))
				}
			})
		ranks = contribs.ReduceByKey(fmt.Sprintf("pr.sum%d", it), parts, addInts).
			Map(fmt.Sprintf("pr.damp%d", it), func(p rdd.Pair) rdd.Pair {
				return rdd.KV(p.Key, 150+85*p.Value.(int)/100)
			})
	}
	return ranks
}

// cachedNode returns the first Cached node of target's lineage, nil when it
// has none.
func cachedNode(target *rdd.RDD) *rdd.RDD {
	if target.Cached {
		return target
	}
	for _, d := range target.Deps {
		if c := cachedNode(d.Parent); c != nil {
			return c
		}
	}
	return nil
}

// fetchedOnce checks a fetched job's trace for the shuffle that feeds
// cached: one read (a fetch span, whether it touched a socket or not) per
// reduce partition, and each (reduce partition, map output) served once at
// most — a map output on the reader's own worker is read without a serve.
// Every stage that reads cached places its task for partition p on one
// worker, which computed the partition there first and keeps it.
func fetchedOnce(spans []trace.Span, cached *rdd.RDD) error {
	id := cached.Deps[0].Shuffle.ID
	reads := map[trace.SpanID]int{} // fetch span → reduce partition
	perReduce := map[int]int{}
	for _, s := range spans {
		if s.Kind == trace.KindFetch && s.Shuffle == id {
			reads[s.ID] = s.Part
			perReduce[s.Part]++
		}
	}
	for reduce := 0; reduce < cached.NumParts(); reduce++ {
		if n := perReduce[reduce]; n != 1 {
			return fmt.Errorf("%s's input shuffle %d: reduce partition %d read %d times, want once", cached.Name, id, reduce, n)
		}
	}
	type served struct{ reduce, mapPart int }
	seen := map[served]bool{}
	for _, s := range spans {
		reduce, ok := reads[s.Parent]
		if s.Kind != trace.KindServe || !ok {
			continue
		}
		k := served{reduce, s.Part}
		if seen[k] {
			return fmt.Errorf("%s's input shuffle %d: map output %d served to reduce partition %d twice", cached.Name, id, s.Part, reduce)
		}
		seen[k] = true
	}
	if len(seen) == 0 {
		return fmt.Errorf("%s's input shuffle %d: nothing served over a socket", cached.Name, id)
	}
	return nil
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
