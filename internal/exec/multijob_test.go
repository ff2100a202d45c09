package exec

import (
	"context"
	"fmt"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func multiJobInput(g *rdd.Graph, topo *topology.Topology, salt int) *rdd.RDD {
	var parts []rdd.InputPartition
	for i, h := range topo.Workers() {
		parts = append(parts, rdd.InputPartition{
			Host: h, ModeledBytes: 30 * mb,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("j%d-k%d", salt, i%5), 1)},
		})
	}
	return g.Input(fmt.Sprintf("in%d", salt), parts)
}

func TestRunManyJobsConcurrently(t *testing.T) {
	topo := topology.SixRegionEC2()
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	var specs []JobSpec
	for j := 0; j < 3; j++ {
		job := multiJobInput(g, topo, j).ReduceByKey(fmt.Sprintf("r%d", j), 4, sum)
		specs = append(specs, JobSpec{Target: job, Action: ActionSave})
	}
	results, err := eng.RunManyContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for j, res := range results {
		if len(res.Records) != 5 {
			t.Fatalf("job %d records = %d, want 5", j, len(res.Records))
		}
		for _, p := range res.Records {
			// 24 partitions, keys i%5: keys 0-3 appear 5 times, key 4 four.
			n := p.Value.(int)
			if n != 5 && n != 4 {
				t.Fatalf("job %d key %s = %d", j, p.Key, n)
			}
		}
		if res.JCT <= 0 {
			t.Fatalf("job %d JCT = %v", j, res.JCT)
		}
	}
}

// TestConcurrentJobsContend verifies jobs actually share the cluster:
// three concurrent copies must each take longer than a lone run, but far
// less than three serial runs (they overlap).
func TestConcurrentJobsContend(t *testing.T) {
	topo := topology.SixRegionEC2()
	lone := func() float64 {
		eng := New(topo, 1, Config{ComputeNoise: -1})
		g := rdd.NewGraph()
		res, err := eng.run(multiJobInput(g, topo, 0).ReduceByKey("r", 4, sum), ActionSave, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT
	}()
	eng := New(topo, 1, Config{ComputeNoise: -1})
	g := rdd.NewGraph()
	var specs []JobSpec
	for j := 0; j < 3; j++ {
		specs = append(specs, JobSpec{
			Target: multiJobInput(g, topo, j).ReduceByKey(fmt.Sprintf("r%d", j), 4, sum),
			Action: ActionSave,
		})
	}
	results, err := eng.RunManyContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var slowest float64
	for _, res := range results {
		if res.JCT > slowest {
			slowest = res.JCT
		}
	}
	if slowest <= lone {
		t.Fatalf("no contention: slowest concurrent %.2f <= lone %.2f", slowest, lone)
	}
	if slowest >= 3*lone {
		t.Fatalf("no overlap: slowest concurrent %.2f >= 3x lone %.2f", slowest, lone)
	}
}

func TestRunManyRejectsNestedRuns(t *testing.T) {
	topo := topology.TwoDCMicro()
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	probe := multiJobInput(g, topo, 0)
	nested := probe.Map("hook", func(p rdd.Pair) rdd.Pair {
		// Re-entrant RunManyContext from inside a running job must fail.
		if _, err := eng.RunManyContext(context.Background(), []JobSpec{{Target: probe, Action: ActionCount}}); err == nil {
			t.Error("nested RunManyContext succeeded")
		}
		return p
	})
	if _, err := eng.run(nested, ActionCount, runOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunManyEmpty(t *testing.T) {
	topo := topology.TwoDCMicro()
	eng := New(topo, 1, Config{})
	results, err := eng.RunManyContext(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty RunManyContext = %v, %v", results, err)
	}
}
