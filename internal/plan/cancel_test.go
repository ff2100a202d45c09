package plan

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// cancelInput builds n single-record input partitions on distinct hosts.
func cancelInput(g *rdd.Graph, n int) *rdd.RDD {
	parts := make([]rdd.InputPartition, n)
	for i := range parts {
		parts[i] = rdd.InputPartition{
			Host: topology.HostID(i), ModeledBytes: 1,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", i), 1)},
		}
	}
	return g.Input("in", parts)
}

// TestRunContextPreCanceled fails fast without touching the backend when
// the context is dead on arrival.
func TestRunContextPreCanceled(t *testing.T) {
	job, err := BuildJob(cancelInput(rdd.NewGraph(), 4))
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewDriver(job, be, DriverConfig{}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := be.Events.Counts().Started; n != 0 {
		t.Fatalf("%d tasks started under a pre-canceled context", n)
	}
}

// TestRunContextCancelMidStage cancels from inside the first task of a
// serialized stage: the driver must stop launching the rest, drain
// cleanly, and surface an error that errors.Is recognizes as
// cancellation.
func TestRunContextCancelMidStage(t *testing.T) {
	const tasks = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	g := rdd.NewGraph()
	target := cancelInput(g, tasks).MapPartitions("trip", func(_ int, in []rdd.Pair) []rdd.Pair {
		ran.Add(1)
		cancel()
		return in
	})
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend(1)
	// One site, one slot: tasks run strictly one at a time, so the first
	// task's cancel fires before most of the stage has launched.
	_, err = NewDriver(job, be, DriverConfig{SiteSlots: 1}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first task trips the cancel; at most one more can be racing the
	// semaphore at that instant. The rest must never have run.
	if n := ran.Load(); n >= tasks {
		t.Fatalf("all %d tasks ran despite mid-stage cancel", n)
	}
	if n := be.Events.Counts().Finished; n >= tasks {
		t.Fatalf("%d finished-task events despite mid-stage cancel", n)
	}
}

// cancelingBackend fails every result task, canceling the run's context
// on the first failure — the shape of a worker dying while its job is
// being torn down.
type cancelingBackend struct {
	*MemBackend
	cancel   context.CancelFunc
	attempts atomic.Int32
}

func (b *cancelingBackend) RunTask(Task) (TaskResult, error) {
	b.attempts.Add(1)
	b.cancel()
	return TaskResult{}, errors.New("worker lost")
}

// TestRunContextCancelSkipsRetry checks a failing task under a canceled
// context surfaces the cancellation instead of burning retry budget.
func TestRunContextCancelSkipsRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job, err := BuildJob(cancelInput(rdd.NewGraph(), 1))
	if err != nil {
		t.Fatal(err)
	}
	be := &cancelingBackend{MemBackend: NewMemBackend(1), cancel: cancel}
	_, err = NewDriver(job, be, DriverConfig{}).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := be.attempts.Load(); n != 1 {
		t.Fatalf("task attempted %d times under a canceled context, want 1", n)
	}
}

// TestRunContextNilBehavesLikeRun keeps the nil-context escape hatch.
func TestRunContextNilBehavesLikeRun(t *testing.T) {
	job, err := BuildJob(cancelInput(rdd.NewGraph(), 3))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := NewDriver(job, NewMemBackend(2), DriverConfig{}).RunContext(nil) //lint:ignore SA1012 nil-tolerance is part of the contract
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	if n != 3 {
		t.Fatalf("got %d records, want 3", n)
	}
}
