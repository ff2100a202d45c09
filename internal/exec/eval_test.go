package exec

import (
	"math"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func TestScaleTo(t *testing.T) {
	cases := []struct {
		outReal, inReal, inModeled, want float64
	}{
		{50, 100, 1000, 500},   // 10x scale preserved
		{200, 100, 1000, 2000}, // bloat scales up
		{0, 100, 1000, 0},
		{50, 0, 1000, 50}, // no real input: fall back to real size
	}
	for _, c := range cases {
		if got := scaleTo(c.outReal, c.inReal, c.inModeled); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("scaleTo(%v,%v,%v) = %v, want %v", c.outReal, c.inReal, c.inModeled, got, c.want)
		}
	}
}

func evalFixture(t *testing.T) (*Engine, *rdd.Graph) {
	t.Helper()
	topo := topology.TwoDCMicro()
	return New(topo, 1, Config{}), rdd.NewGraph()
}

func TestWalkNeedsSource(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 2, ModeledBytes: 77, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	mapped := in.Map("m", func(p rdd.Pair) rdd.Pair { return p })
	if n := eng.walkNeed(mapped, 0, nil); n.kind != needSource || n.host != 2 || n.modeled != 77 {
		t.Fatalf("need = %+v", n)
	}
}

func TestWalkNeedsStopsAtBound(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 10, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	moved := in.TransferTo(1)
	top := moved.Map("m", func(p rdd.Pair) rdd.Pair { return p })
	bound := map[int]partData{moved.ID: {records: nil, modeled: 10}}
	if n := eng.walkNeed(top, 0, bound); n.kind != needNothing {
		t.Fatalf("bound boundary leaked a need: %+v", n)
	}
}

func TestWalkNeedsShuffleBoundary(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 10, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	red := in.ReduceByKey("r", 2, sum)
	post := red.Map("post", func(p rdd.Pair) rdd.Pair { return p })
	if n := eng.walkNeed(post, 0, nil); n.kind != needShuffleRead || n.node != red {
		t.Fatalf("need = %+v", n)
	}
}

func TestWalkNeedsCachedShortCircuit(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 10, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	cached := in.Map("m", func(p rdd.Pair) rdd.Pair { return p }).Cache()
	top := cached.Map("top", func(p rdd.Pair) rdd.Pair { return p })

	// Before materialization the walk recurses to the source.
	if n := eng.walkNeed(top, 0, nil); n.kind != needSource {
		t.Fatalf("pre-cache need = %+v", n)
	}
	// After materialization it stops at the cached copy.
	eng.storeCache(cached, 0, 3, partData{records: []rdd.Pair{rdd.KV("a", 1)}, modeled: 42})
	if n := eng.walkNeed(top, 0, nil); n.kind != needCached || n.host != 3 || n.modeled != 42 {
		t.Fatalf("post-cache need = %+v", n)
	}
}

func TestStoreCacheFirstWriteWins(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 10, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	cached := in.Map("m", func(p rdd.Pair) rdd.Pair { return p }).Cache()
	eng.storeCache(cached, 0, 1, partData{modeled: 11})
	eng.storeCache(cached, 0, 2, partData{modeled: 22})
	cp := eng.cachedPart(cached, 0)
	if cp == nil || cp.host != 1 || cp.modeled != 11 {
		t.Fatalf("cache = %+v, want first write kept", cp)
	}
	// Non-cached RDDs never store.
	plain := in.Map("p", func(p rdd.Pair) rdd.Pair { return p })
	eng.storeCache(plain, 0, 1, partData{modeled: 9})
	if eng.cachedPart(plain, 0) != nil {
		t.Fatal("non-cached RDD stored a cache entry")
	}
}

func TestEvaluateChargesCost(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 1000, Records: []rdd.Pair{rdd.KV("a", "xx")}},
	})
	m1 := in.Map("m1", func(p rdd.Pair) rdd.Pair { return p })
	m2 := m1.Map("m2", func(p rdd.Pair) rdd.Pair { return p })
	var cost float64
	out := eng.evaluate(m2, 0, 0, map[int]partData{}, &cost)
	// Each operator charges its modeled input: m1 its 1000 bytes, m2 m1's
	// modeled output (= 1000, identity map).
	if math.Abs(cost-2000) > 1e-9 {
		t.Fatalf("cost = %v, want 2000", cost)
	}
	if math.Abs(out.modeled-1000) > 1e-9 {
		t.Fatalf("modeled = %v, want 1000 (identity chain)", out.modeled)
	}
}

func TestEvaluateTransferNodesAreFreeCPU(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 500, Records: []rdd.Pair{rdd.KV("a", "x")}},
	})
	moved := in.TransferTo(1)
	var cost float64
	out := eng.evaluate(moved, 0, 0, map[int]partData{}, &cost)
	if cost != 0 {
		t.Fatalf("transfer node charged CPU: %v", cost)
	}
	if out.modeled != 500 {
		t.Fatalf("modeled = %v", out.modeled)
	}
}

func TestEvaluateUnboundShufflePanics(t *testing.T) {
	eng, g := evalFixture(t)
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 10, Records: []rdd.Pair{rdd.KV("a", 1)}},
	})
	red := in.ReduceByKey("r", 2, sum)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unacquired shuffle boundary")
		}
	}()
	var cost float64
	eng.evaluate(red, 0, 0, map[int]partData{}, &cost)
}

func TestModeledBytesShrinkWithFilter(t *testing.T) {
	eng, g := evalFixture(t)
	recs := []rdd.Pair{rdd.KV("keep", "x"), rdd.KV("drop", "x"), rdd.KV("keep", "x"), rdd.KV("drop", "x")}
	in := g.Input("in", []rdd.InputPartition{{Host: 0, ModeledBytes: 1000, Records: recs}})
	half := in.Filter("half", func(p rdd.Pair) bool { return p.Key == "keep" })
	var cost float64
	out := eng.evaluate(half, 0, 0, map[int]partData{}, &cost)
	if math.Abs(out.modeled-500) > 1e-9 {
		t.Fatalf("filtered modeled = %v, want 500 (half the records, equal sizes)", out.modeled)
	}
}
