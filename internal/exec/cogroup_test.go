package exec

import (
	"math"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// A cogroup's sides are charged by the cost model although no record
// carries its side: a pass over each side's map output, and one byte more
// per record (rdd.ShuffledSize) in what is pushed, fetched and aggregated.
// The JCT and cross-DC bytes of one small join, fetched and pushed, were
// recorded while each cogroup record carried its side in its value; a
// change to how a side is charged moves them.
func TestCoGroupSidesKeepTheirCharge(t *testing.T) {
	topo := topology.SixRegionEC2()
	for _, tc := range []struct {
		name         string
		push         bool
		jct, crossDC float64
	}{
		{"fetch", false, 165.91823597478214, 6.49709066060598e+09},
		{"push", true, 69.26509804453396, 2.6839783001808313e+08},
	} {
		g := rdd.NewGraph()
		left := spreadInput(g, topo, 10*mb)
		right := spreadInput(g, topo, 4*mb).Map("right", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, len(p.Value.(string))) })
		job := left.Join("join", right, 4)
		if tc.push {
			dag.AutoAggregate(job)
		}
		res, err := New(topo, 1, Config{}).run(job, ActionCollect, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !near(res.JCT, tc.jct) || !near(res.CrossDCBytes, tc.crossDC) {
			t.Errorf("%s: JCT %v s, cross-DC %v B; want %v s, %v B", tc.name, res.JCT, res.CrossDCBytes, tc.jct, tc.crossDC)
		}
	}
}

func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
