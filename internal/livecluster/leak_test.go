package livecluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"wanshuffle/internal/rdd"
)

// openDescriptors counts the process's open file descriptors, or returns
// false where /proc/self/fd cannot be read.
func openDescriptors() (int, bool) {
	entries, err := os.ReadDir("/proc/self/fd")
	return len(entries), err == nil
}

// settled waits for what earlier tests are still closing to be closed — the
// goroutine and descriptor counts holding still over a few reads — and
// returns the two counts (descriptors -1 where they cannot be read).
func settled() (goroutines, fds int) {
	for same := 0; same < 3; {
		time.Sleep(5 * time.Millisecond)
		runtime.GC() // a finalizer may hold the last reference to a file
		g := runtime.NumGoroutine()
		f, ok := openDescriptors()
		if !ok {
			f = -1
		}
		if g == goroutines && f == fds {
			same++
		} else {
			goroutines, fds, same = g, f, 0
		}
	}
	return goroutines, fds
}

// TestClusterLeavesNothingBehind runs a cluster through what a cluster goes
// through — a job, a job canceled in the middle of its map stage, another
// job, a worker killed, Close — and holds the process to where it started: no
// goroutine, no descriptor and no spill file left. On the way it pins what a
// cluster opens to begin with: New adds one descriptor per worker, its
// listener, and nothing else — every socket after that is a link's connection
// to one of those listeners, heartbeats on or off.
func TestClusterLeavesNothingBehind(t *testing.T) {
	// Warm the netpoller: its descriptors are the process's, not a cluster's.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	for _, hb := range []time.Duration{2 * time.Millisecond, -1} {
		for _, mode := range []Mode{ModeFetch, ModePush} {
			t.Run(fmt.Sprintf("heartbeat %v %v", hb, mode), func(t *testing.T) { clusterLeavesNothingBehind(t, hb, mode) })
		}
	}
}

func clusterLeavesNothingBehind(t *testing.T, heartbeat time.Duration, mode Mode) {
	const workers = 3
	spill := t.TempDir()
	goroutines, fds := settled()
	c, err := New(Config{
		Workers: workers, Mode: mode, TasksPerWorker: 1, HeartbeatInterval: heartbeat,
		MemoryBudget: 256, SpillDir: spill,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // on a failure's way out; Close is idempotent
	if heartbeat > 0 {
		time.Sleep(5 * heartbeat) // past the first beats: they open nothing
	}
	if got, ok := openDescriptors(); ok && got != fds+workers {
		t.Fatalf("New took the process from %d to %d descriptors, want %d more: the workers' listeners", fds, got, workers)
	}

	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	runJob := func() {
		t.Helper()
		out, _, err := c.Run(buildWordCount(6, 3))
		if err != nil || canon(out) != want {
			t.Fatalf("job failed or diverges from reference (%v)", err)
		}
	}
	runJob()
	// Six map tasks on three slots, the first parked on the gate: the cancel
	// lands with tasks running, tasks waiting for a slot and pushes done.
	reached, release := make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.RunContext(ctx, gatedWordCount(6, 3, reached, release))
		done <- err
	}()
	<-reached
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job: err = %v, want context.Canceled", err)
	}
	runJob()
	if c.StorageStats().SpillEvents == 0 {
		t.Fatal("nothing spilled under a 256-byte budget: the spill directory was never used")
	}
	c.KillWorker(1)
	c.Close()

	waitFor(t, "goroutines and descriptors to return to where they were before New", func() bool {
		now, ok := openDescriptors()
		return runtime.NumGoroutine() <= goroutines && (!ok || now <= fds)
	})
	if entries, err := os.ReadDir(spill); err != nil || len(entries) != 0 {
		t.Fatalf("spill directory after Close: %v (%v)", entries, err)
	}
}
