package exec

import (
	"context"
	"errors"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// TestErrBusyIsTyped pins the busy-engine failure as a typed sentinel: a
// caller distinguishes "retry after the current job" from fatal
// submission errors with errors.Is.
func TestErrBusyIsTyped(t *testing.T) {
	topo := topology.TwoDCMicro()
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	probe := multiJobInput(g, topo, 0)
	var nestedErr error
	nested := probe.Map("hook", func(p rdd.Pair) rdd.Pair {
		_, nestedErr = eng.RunManyContext(context.Background(), []JobSpec{{Target: probe, Action: ActionCount}})
		return p
	})
	if _, err := eng.run(nested, ActionCount, runOptions{}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(nestedErr, errBusy) {
		t.Fatalf("nested RunManyContext err = %v, want errors.Is(_, ErrBusy)", nestedErr)
	}
	// The engine is idle again after the outer run: a fresh job succeeds.
	if _, err := eng.run(multiJobInput(g, topo, 1), ActionCount, runOptions{}); err != nil {
		t.Fatalf("engine stuck busy after run: %v", err)
	}
}

// TestRunManyContextPreCanceled rejects a dead-on-arrival context before
// any job is prepared or launched.
func TestRunManyContextPreCanceled(t *testing.T) {
	topo := topology.TwoDCMicro()
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.RunManyContext(ctx, []JobSpec{{Target: multiJobInput(g, topo, 0), Action: ActionCount}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunManyContextCancelMidRun cancels from inside a map closure: the
// event loop must abort with a cancellation-shaped error instead of
// simulating the job to completion.
func TestRunManyContextCancelMidRun(t *testing.T) {
	topo := topology.SixRegionEC2()
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	target := multiJobInput(g, topo, 0).Map("trip", func(p rdd.Pair) rdd.Pair {
		cancel()
		return p
	}).ReduceByKey("r", 4, sum)
	_, err := eng.RunManyContext(ctx, []JobSpec{{Target: target, Action: ActionSave}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
