package bench

import (
	"fmt"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// MicroResult reports one run of the Fig. 1 / Fig. 2 micro-scenario.
type MicroResult struct {
	// Mode is "fetch" or "push".
	Mode string
	// JCT is the job completion time.
	JCT float64
	// ReduceStart is when the first reduce task began computing — the
	// quantity Fig. 1 compares (t=18 fetch vs t=14 push).
	ReduceStart float64
	// CrossDCMB is the cross-datacenter traffic in MB.
	CrossDCMB float64
	// WANUtilBeforeReduce is the shared inter-DC link's mean utilization
	// from job start to reducer start — the quantity behind Sec. II-B's
	// "links are usually well under-utilized most of the time".
	WANUtilBeforeReduce float64
	// Gantt is the ASCII timeline.
	Gantt string
}

// microScenario builds the two-datacenter setting of the paper's Figs. 1
// and 2: staggered mappers in dc-a, reducers in dc-b, inter-DC bandwidth at
// ¼ of a datacenter link. mutate, when not nil, tweaks the engine config
// (failure injection, ablations).
func microScenario(push bool, seed int64, mutate func(*exec.Config)) (*MicroResult, error) {
	topo := microTopology()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")

	cfg := core.Config{
		Topology: topo,
		Seed:     seed,
		Scheme:   core.SchemeManual,
		Exec: exec.Config{
			ComputeBps:    20e6,
			ComputeNoise:  -1,
			PinReducersDC: &dcB,
			Trace:         true,
			// All cross-DC traffic funnels through the single dc-b
			// host's 250 Mbps WAN share — Fig. 1's "inter-datacenter
			// link is ¼ of a datacenter link", shared by every flow.
			// BurstPenalty -1: the shared-link arithmetic of Fig. 1 is
			// fluid.
			Net: simnet.Config{HostWANBps: 250 * topology.Mbps, BurstPenalty: -1},
		},
	}
	if mutate != nil {
		mutate(&cfg.Exec)
	}
	ctx := core.NewContext(cfg)

	// Four staggered map partitions on dc-a's two workers, as in Fig. 1:
	// mappers finish at different times, so a proactive push keeps the
	// WAN link busy long before the stage barrier.
	hosts := ctx.Topology().HostsIn(dcA)
	var parts []rdd.InputPartition
	for i := 0; i < 4; i++ {
		var recs []rdd.Pair
		for w := 0; w < 40; w++ {
			recs = append(recs, rdd.KV(fmt.Sprintf("k%d-%d", i, w), fmt.Sprintf("word%02d", (w+i)%13)))
		}
		parts = append(parts, rdd.InputPartition{
			Host:         hosts[i%len(hosts)],
			ModeledBytes: float64(i+1) * 40e6,
			Records:      recs,
		})
	}
	in := ctx.Input("micro.in", parts)
	mapped := in.Map("micro.map", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Value.(string), 1) })
	if push {
		mapped = mapped.TransferTo(dcB)
	}
	job := mapped.AggregateByKey("micro.agg", 2, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})

	rep, err := ctx.Collect(job)
	if err != nil {
		return nil, err
	}
	mode := "fetch"
	if push {
		mode = "push"
	}
	res := &MicroResult{
		Mode:      mode,
		JCT:       rep.JCT,
		CrossDCMB: rep.CrossDCBytes / 1e6,
		Gantt:     rep.Gantt(100),
	}
	// The first reduce computation marks the reducers starting (Fig. 1
	// compares t=18 fetch vs t=14 push at this point).
	for _, s := range rep.Spans() {
		if s.Kind == trace.KindReduce {
			res.ReduceStart = s.Start
			break
		}
	}
	if res.ReduceStart > 0 {
		moved := simnet.CrossBytesBetween(ctx.Engine().Net.UtilTimeline(), 0, res.ReduceStart)
		capacity := 250 * topology.Mbps / 8 * res.ReduceStart
		res.WANUtilBeforeReduce = moved / capacity
	}
	return res, nil
}

// microTopology is Fig. 1's setting: two mapper workers in dc-a and one
// reducer-side worker in dc-b, connected by a wide-area path at ¼ of the
// datacenter link rate.
func microTopology() *topology.Topology {
	b := topology.NewBuilder()
	dcA := b.AddDC("dc-a", 2, 2, 1*topology.Gbps)
	dcB := b.AddDC("dc-b", 1, 4, 1*topology.Gbps)
	b.Link(dcA, dcB, 250*topology.Mbps, 40*topology.Millisecond)
	b.IntraLatency(0.5 * topology.Millisecond)
	b.Driver(dcB)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// fetchAndPush runs one comparison under fetch-based shuffle, then under
// push.
func fetchAndPush[T any](run func(push bool) (T, error)) (fetch, push T, err error) {
	if fetch, err = run(false); err == nil {
		push, err = run(true)
	}
	return fetch, push, err
}

// Fig1 reproduces the paper's Fig. 1: the same two-stage job under
// fetch-based shuffle vs proactive push, reporting reducer start times and
// timelines.
func Fig1(seed int64) (fetch, push *MicroResult, err error) {
	return fetchAndPush(func(push bool) (*MicroResult, error) {
		return microScenario(push, seed, nil)
	})
}

// Fig2Result extends MicroResult with the failure-recovery comparison.
type Fig2Result struct {
	Clean  *MicroResult
	Failed *MicroResult
	// Penalty is the JCT increase the failure caused.
	Penalty float64
}

// microFailure runs the micro-scenario clean, then again with the failure
// inject configures — it sees the clean run, so a failure can be timed
// against it — and reports what the failure cost.
func microFailure(push bool, seed int64, inject func(clean *MicroResult, c *exec.Config)) (*Fig2Result, error) {
	clean, err := microScenario(push, seed, nil)
	if err != nil {
		return nil, err
	}
	failed, err := microScenario(push, seed, func(c *exec.Config) { inject(clean, c) })
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Clean: clean, Failed: failed, Penalty: failed.JCT - clean.JCT}, nil
}

// Fig2 reproduces the paper's Fig. 2: a reducer fails mid-stage; with
// fetch-based shuffle its retry re-fetches across datacenters, with push
// the shuffle input is already local to the reducer's datacenter.
func Fig2(seed int64) (fetch, push *Fig2Result, err error) {
	return fetchAndPush(func(push bool) (*Fig2Result, error) {
		return microFailure(push, seed, func(_ *MicroResult, c *exec.Config) {
			c.ScriptedFailures = []exec.FailureSpec{{Stage: "micro.agg", Part: 0, Attempt: 1, AtFrac: 0.5}}
		})
	})
}
