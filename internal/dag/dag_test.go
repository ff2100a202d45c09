package dag

import (
	"strings"
	"testing"

	"wanshuffle/internal/rdd"
)

func input(g *rdd.Graph, parts int) *rdd.RDD {
	ps := make([]rdd.InputPartition, parts)
	for i := range ps {
		ps[i] = rdd.InputPartition{Host: 0, ModeledBytes: 100, Records: []rdd.Pair{rdd.KV("k", i)}}
	}
	return g.Input("in", ps)
}

func sum(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

func TestSimpleTwoStagePlan(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 3)
	counts := in.Map("m", func(p rdd.Pair) rdd.Pair { return p }).ReduceByKey("r", 2, sum)
	final := counts.Map("post", func(p rdd.Pair) rdd.Pair { return p })

	plan, err := BuildPlan(final)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 2 {
		t.Fatalf("plan has %d stages, want 2", len(plan.Stages))
	}
	mapStage, resStage := plan.Stages[0], plan.Stages[1]
	if mapStage.OutSpec == nil || resStage.OutSpec != nil {
		t.Fatalf("out specs = %v/%v, want the map stage's only", mapStage.OutSpec, resStage.OutSpec)
	}
	if plan.Final != resStage {
		t.Fatal("Final is not the result stage")
	}
	if mapStage.NumTasks != 3 || resStage.NumTasks != 2 {
		t.Fatalf("tasks = %d/%d, want 3/2", mapStage.NumTasks, resStage.NumTasks)
	}
	if len(mapStage.Phases) != 1 || len(resStage.Phases) != 1 {
		t.Fatal("unexpected phases without transferTo")
	}
	if len(resStage.Parents) != 1 || resStage.Parents[0] != mapStage {
		t.Fatal("result stage not parented to map stage")
	}
	if mapStage.Base != in {
		t.Fatalf("map stage base = %q, want the leaf", mapStage.Base.Name)
	}
	if resStage.Base.Name != "r" {
		t.Fatalf("result stage base = %q, want the shuffled RDD", resStage.Base.Name)
	}
}

func TestResultStageDirectlyOnShuffle(t *testing.T) {
	g := rdd.NewGraph()
	counts := input(g, 2).ReduceByKey("r", 2, sum)
	plan, err := BuildPlan(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(plan.Stages))
	}
	if plan.Final.Base != counts {
		t.Fatal("bare ShuffledRDD result stage must be its own base")
	}
}

func TestExplicitTransferSplitsPhases(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 3)
	mapped := in.Map("m", func(p rdd.Pair) rdd.Pair { return p })
	moved := mapped.TransferTo(1)
	counts := moved.ReduceByKey("r", 2, sum)
	plan, err := BuildPlan(counts)
	if err != nil {
		t.Fatal(err)
	}
	mapStage := plan.Stages[0]
	if len(mapStage.Phases) != 2 {
		t.Fatalf("map stage phases = %d, want 2", len(mapStage.Phases))
	}
	if mapStage.Phases[0].Top != mapped || mapStage.Phases[0].Transfer == nil {
		t.Fatalf("phase 0 = %+v, want top=m with transfer", mapStage.Phases[0])
	}
	if mapStage.Phases[0].Transfer.DC != 1 || mapStage.Phases[0].Transfer.Auto {
		t.Fatalf("transfer spec = %+v", mapStage.Phases[0].Transfer)
	}
	if mapStage.Phases[1].Top != moved || mapStage.Phases[1].Transfer != nil {
		t.Fatalf("phase 1 = %+v, want top=transferred, no push", mapStage.Phases[1])
	}
	if mapStage.Output != moved {
		t.Fatal("stage output must be the transferred RDD")
	}
}

func TestChainedTransfers(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 2)
	r := in.TransferTo(1).Map("m", func(p rdd.Pair) rdd.Pair { return p }).TransferTo(0)
	plan, err := BuildPlan(r.ReduceByKey("r", 2, sum))
	if err != nil {
		t.Fatal(err)
	}
	mapStage := plan.Stages[0]
	if len(mapStage.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(mapStage.Phases))
	}
	if mapStage.Phases[0].Transfer.DC != 1 || mapStage.Phases[1].Transfer.DC != 0 {
		t.Fatalf("transfer order wrong: %+v %+v", mapStage.Phases[0].Transfer, mapStage.Phases[1].Transfer)
	}
}

func TestAutoAggregateInsertsTransfers(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 3)
	job := in.Map("m", func(p rdd.Pair) rdd.Pair { return p }).
		ReduceByKey("r1", 2, sum).
		GroupByKey("r2", 2)
	n := AutoAggregate(job)
	if n != 2 {
		t.Fatalf("inserted %d transfers, want 2", n)
	}
	// Idempotent: transfers are not doubled.
	if n := AutoAggregate(job); n != 0 {
		t.Fatalf("second AutoAggregate inserted %d, want 0", n)
	}
	plan, err := BuildPlan(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(plan.Stages))
	}
	for _, st := range plan.Stages[:2] {
		if len(st.Phases) != 2 {
			t.Fatalf("%s phases = %d, want 2 (auto transfer)", st.Name(), len(st.Phases))
		}
		if tr := st.Phases[0].Transfer; tr == nil || !tr.Auto {
			t.Fatalf("%s transfer = %+v, want auto", st.Name(), tr)
		}
	}
}

func TestSharedShuffleStageDeduped(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 2)
	shuffled := in.ReduceByKey("shared", 2, sum)
	a := shuffled.Map("a", func(p rdd.Pair) rdd.Pair { return p })
	b := shuffled.Map("b", func(p rdd.Pair) rdd.Pair { return p })
	joined := a.Join("join", b, 2)
	plan, err := BuildPlan(joined)
	if err != nil {
		t.Fatal(err)
	}
	// Stages: shared map stage (1) + two cogroup map stages + result = 4.
	if len(plan.Stages) != 4 {
		t.Fatalf("stages = %d, want 4 (shared stage deduped)", len(plan.Stages))
	}
	// The result (cogroup) stage must have exactly 2 parents.
	if got := len(plan.Final.Parents); got != 2 {
		t.Fatalf("final parents = %d, want 2", got)
	}
}

// TestInvalidLineageRejected hands BuildPlan a valid single-stage plan, then
// the graphs no operator builds but a caller rewriting Deps could: a narrow
// RDD with two parents, one over a parent with another partition count, and
// one with a shuffle dependency beside its narrow one. A stage is a chain
// over one base, so each is rejected with an error naming the node.
func TestInvalidLineageRejected(t *testing.T) {
	if _, err := BuildPlan(input(rdd.NewGraph(), 2)); err != nil {
		t.Fatalf("valid single-stage plan rejected: %v", err)
	}
	id := func(p rdd.Pair) rdd.Pair { return p }
	for _, tc := range []struct {
		name   string
		mangle func(bad *rdd.RDD, g *rdd.Graph)
	}{
		{"two parents", func(bad *rdd.RDD, g *rdd.Graph) {
			bad.Deps = append(bad.Deps, rdd.Dependency{Kind: rdd.DepNarrow, Parent: input(g, 2)})
		}},
		{"other partition count", func(bad *rdd.RDD, g *rdd.Graph) {
			bad.Deps[0].Parent = input(g, 3)
		}},
		{"mixed dependencies", func(bad *rdd.RDD, g *rdd.Graph) {
			bad.Deps = append(bad.Deps, input(g, 1).ReduceByKey("r", 2, sum).Deps[0])
		}},
	} {
		g := rdd.NewGraph()
		bad := input(g, 2).Map("bad", id)
		tc.mangle(bad, g)
		_, err := BuildPlan(bad.ReduceByKey("top", 2, sum))
		if err == nil || !strings.Contains(err.Error(), `"bad"`) {
			t.Errorf("%s: BuildPlan err = %v, want one naming %q", tc.name, err, "bad")
		}
	}
}

func TestSingleStagePlanNoShuffle(t *testing.T) {
	g := rdd.NewGraph()
	in := input(g, 2)
	m := in.Map("m", func(p rdd.Pair) rdd.Pair { return p })
	plan, err := BuildPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 || plan.Final != plan.Stages[0] || plan.Final.OutSpec != nil {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Final.Parents) != 0 {
		t.Fatal("single stage has parents")
	}
}

func TestStageNames(t *testing.T) {
	g := rdd.NewGraph()
	plan, err := BuildPlan(input(g, 1).ReduceByKey("r", 1, sum))
	if err != nil {
		t.Fatal(err)
	}
	// Reports and events name stages this way.
	if got := []string{plan.Stages[0].Name(), plan.Stages[1].Name()}; got[0] != "stage0(map:in)" || got[1] != "stage1(result:r)" {
		t.Fatalf("stage names = %q, want [stage0(map:in) stage1(result:r)]", got)
	}
}
