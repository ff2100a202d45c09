package livecluster

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
)

// computed counts, per key, the records the Cached node of the jobs below
// computes. rdd.EvalLocal computes each partition once, so a backend that
// does the same counts what the reference counts.
type computed struct {
	mu    sync.Mutex
	byKey map[string]int
}

// take returns the counts so far and starts over.
func (c *computed) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	byKey := c.byKey
	c.byKey = nil
	return byKey
}

// counted is the Cached node of the jobs below: its input as it is, with
// every record it computes counted in calls.
func counted(in *rdd.RDD, calls *computed) *rdd.RDD {
	return in.Map("count", func(p rdd.Pair) rdd.Pair {
		calls.mu.Lock()
		if calls.byKey == nil {
			calls.byKey = map[string]int{}
		}
		calls.byKey[p.Key]++
		calls.mu.Unlock()
		return p
	}).Cache()
}

func addInts(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

// cachedFanOut builds a job whose Cached node — a reduce, then counted — is
// read by three later stages: the map sides of shuffles "a" and "b" and the
// left side of join "c"; the result cogroups c with b. Its inputs are drawn
// from seed; its shape is the same for every seed, so two builds number
// their nodes alike.
func cachedFanOut(parts int, seed int64, calls *computed) *rdd.RDD {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]rdd.InputPartition, parts)
	for p := range inputs {
		recs := make([]rdd.Pair, 40)
		for i := range recs {
			recs[i] = rdd.KV(fmt.Sprintf("k%02d", rng.Intn(17)), rng.Intn(100))
		}
		inputs[p] = rdd.InputPartition{ModeledBytes: 1, Records: recs}
	}
	cached := counted(rdd.NewGraph().Input("in", inputs).ReduceByKey("sums", parts, addInts), calls)
	a := cached.Map("a.double", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, 2*p.Value.(int)) }).
		ReduceByKey("a", parts, addInts)
	b := cached.Map("b.tens", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key[:2], p.Value) }).
		ReduceByKey("b", parts, addInts)
	c := cached.Join("c", a, parts).Map("c.sum", func(p rdd.Pair) rdd.Pair {
		v := p.Value.([]rdd.Value)
		return rdd.KV(p.Key, v[0].(int)+v[1].(int))
	})
	return c.CoGroup("out", b, parts)
}

// stagesReading returns the stages of job whose tasks evaluate the node
// named name: it is on the narrow chain below the stage's top.
func stagesReading(job *plan.Job, name string) []*dag.Stage {
	var reaches func(node *rdd.RDD) bool
	reaches = func(node *rdd.RDD) bool {
		if node.Name == name {
			return true
		}
		for _, d := range node.Deps {
			if d.Kind == rdd.DepNarrow && reaches(d.Parent) {
				return true
			}
		}
		return false
	}
	var out []*dag.Stage
	for _, st := range job.Stages() {
		if reaches(st.Phases[0].Top) {
			out = append(out, st)
		}
	}
	return out
}

// TestCachedPartitionComputedOncePerJob runs cachedFanOut on the live
// cluster and on plan's in-memory backend under both schemes: each partition
// of the Cached node is computed once, by the first stage that reads it, and
// the two later stages read it where it was made — every stage that reads it
// places its task for partition p on one site, round-robin under fetch, the
// aggregator of the node's input shuffle under push. Two jobs run in a row
// on one cluster, with different inputs and the same node IDs: the second
// must not read the first's partitions, so its per-key counts equal the
// reference's only when the caches end with the first job.
func TestCachedPartitionComputedOncePerJob(t *testing.T) {
	const parts, sites = 6, 3
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			cluster, err := New(Config{Workers: sites})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			for seed := int64(1); seed <= 2; seed++ {
				var calls computed
				want := canon(rdd.CollectLocal(cachedFanOut(parts, seed, &calls)))
				once := calls.take()
				job, err := plan.BuildJob(shuffledAs(scheme, cachedFanOut(parts, seed, &calls)))
				if err != nil {
					t.Fatal(err)
				}
				if n := len(stagesReading(job, "count")); n < 3 {
					t.Fatalf("%d stages read the cached node, want at least 3", n)
				}

				out, _, err := cluster.Run(shuffledAs(scheme, cachedFanOut(parts, seed, &calls)))
				if err != nil {
					t.Fatalf("job %d: %v", seed, err)
				}
				if canon(out) != want {
					t.Errorf("job %d on the live cluster diverges from the reference", seed)
				}
				if got := calls.take(); !maps.Equal(got, once) {
					t.Errorf("job %d on the live cluster computed the cached node's keys %v times, want the reference's %v", seed, got, once)
				}

				got, err := plan.NewDriver(job, plan.NewMemBackend(sites), plan.DriverConfig{}).Run()
				if err != nil {
					t.Fatalf("job %d on MemBackend: %v", seed, err)
				}
				if canon(slices.Concat(got...)) != want {
					t.Errorf("job %d on MemBackend diverges from the reference", seed)
				}
				if got := calls.take(); !maps.Equal(got, once) {
					t.Errorf("job %d on MemBackend computed the cached node's keys %v times, want the reference's %v", seed, got, once)
				}
			}
		})
	}
}

// cachedLeafFanOut builds a pushed job whose Cached node is counted straight
// over six leaf partitions, so any site can recompute a partition of it from
// the lineage, and is read by three stages in order, r1, r2 and r3, whose
// outputs the result cogroups, r1 with r2 and that with r3. Partition
// 2 is three times the others: leaf tasks round-robin, so on three workers
// Eq. 2 aggregates every shuffle on worker 2. The first record of partition 0
// that r2 reads closes reached and waits for release; a nil reached builds
// the same job without the gate.
func cachedLeafFanOut(calls *computed, reached, release chan struct{}) *rdd.RDD {
	inputs := make([]rdd.InputPartition, 6)
	for p := range inputs {
		n := 30
		if p == 2 {
			n = 90
		}
		recs := make([]rdd.Pair, n)
		for i := range recs {
			recs[i] = rdd.KV(fmt.Sprintf("p%d-%02d", p, i%13), i)
		}
		inputs[p] = rdd.InputPartition{ModeledBytes: 1, Records: recs}
	}
	var once atomic.Bool
	cached := counted(rdd.NewGraph().Input("in", inputs), calls)
	r1 := cached.ReduceByKey("r1", 3, addInts)
	r2 := cached.Map("r2.gate", func(p rdd.Pair) rdd.Pair {
		if reached != nil && strings.HasPrefix(p.Key, "p0-") && once.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
		return rdd.KV(p.Key[:2], p.Value)
	}).ReduceByKey("r2", 3, addInts)
	r3 := cached.Map("r3.key", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key[3:], 1) }).ReduceByKey("r3", 3, addInts)
	return pushed(r1.CoGroup("r12", r2, 3).CoGroup("out", r3, 3))
}

// TestCachedPartitionsFailOver kills the worker holding cached partitions
// between the stages that read them. One task slot per worker makes the
// schedule exact: r1 computes partition p on worker p%3 (six computations);
// r2's task 0 waits on the gate at worker 0, its task 3 waits for worker 0's
// slot, and worker 1 is killed once r2's task 1 has read its partition
// there. Task 4 of r2 and tasks 1 and 4 of r3 are placed on the dead worker
// and re-placed on worker 2: r2's task 4 and r3's task 1 miss and recompute,
// r3's task 4 reads what r2's left there — eight computations. The output
// equals the reference, the cluster runs the job again on the two that are
// left, and once closed it leaves no goroutine and no descriptor behind.
func TestCachedPartitionsFailOver(t *testing.T) {
	var calls computed
	want := canon(rdd.CollectLocal(cachedLeafFanOut(&calls, nil, nil)))
	once := calls.take()
	// r2's task 4 and r3's task 1 compute partitions 4 and 1 again, and a
	// key names its partition.
	moved := maps.Clone(once)
	for key := range moved {
		if strings.HasPrefix(key, "p1-") || strings.HasPrefix(key, "p4-") {
			moved[key] *= 2
		}
	}
	job, err := plan.BuildJob(cachedLeafFanOut(&calls, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(stagesReading(job, "count")); n != 3 {
		t.Fatalf("%d stages read the cached node, want 3", n)
	}
	r2 := stagesReading(job, "r2.gate")[0].ID

	goroutines, fds := settled()
	cluster, err := New(Config{Workers: 3, TasksPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close() // on a failure's way out; Close is idempotent

	type result struct {
		out   []rdd.Pair
		stats *Stats
		err   error
	}
	done := make(chan result, 1)
	reached, release := make(chan struct{}), make(chan struct{})
	go func() {
		out, stats, err := cluster.Run(cachedLeafFanOut(&calls, reached, release))
		done <- result{out, stats, err}
	}()
	<-reached
	finishedOn(t, cluster.CurrentStats().Events, r2, 1)
	cluster.workers[1].close()
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("job did not survive the killed worker: %v", res.err)
	}
	if canon(res.out) != want {
		t.Error("output after failover diverges from the reference")
	}
	if got := calls.take(); !maps.Equal(got, moved) {
		t.Errorf("cached node's keys computed %v times, want %v: the reference's, and partitions 4 and 1 again by r2's task 4 and r3's task 1 on the worker they moved to", got, moved)
	}
	if res.stats.Retries < 3 {
		t.Errorf("%d retries, want at least 3: the tasks placed on the dead worker", res.stats.Retries)
	}

	out, _, err := cluster.Run(cachedLeafFanOut(&calls, nil, nil))
	if err != nil {
		t.Fatalf("job after the failover: %v", err)
	}
	if canon(out) != want {
		t.Error("job after the failover diverges from the reference")
	}
	if got := calls.take(); !maps.Equal(got, once) {
		t.Errorf("job after the failover computed the cached node's keys %v times, want the reference's %v", got, once)
	}

	cluster.Close()
	leftNothing(t, goroutines, fds)
}
