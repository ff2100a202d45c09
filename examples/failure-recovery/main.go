// Failure recovery: the paper's Fig. 2 scenario as a runnable example.
//
// A reducer fails mid-computation. With fetch-based shuffle its retry must
// re-fetch shuffle input across the wide-area network from the mappers'
// datacenter; with Push/Aggregate the shuffle input already lives in the
// reducer's datacenter, so recovery reads locally. The example injects a
// deterministic failure and prints both timelines.
//
//	go run ./examples/failure-recovery
package main

import (
	"fmt"
	"os"

	"wanshuffle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failure-recovery:", err)
		os.Exit(1)
	}
}

func run() error {
	topo := wanshuffle.TwoDCMicro()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")

	type outcome struct{ clean, failed float64 }
	results := map[string]outcome{}
	for _, push := range []bool{false, true} {
		name := "fetch"
		if push {
			name = "push"
		}
		var o outcome
		for _, fail := range []bool{false, true} {
			rep, err := runJob(topo, dcA, dcB, push, fail)
			if err != nil {
				return err
			}
			if fail {
				o.failed = rep.JCT
				fmt.Printf("[%s, reducer fails at 50%%]\n%s\n", name, rep.Gantt(96))
			} else {
				o.clean = rep.JCT
			}
		}
		results[name] = o
	}

	fetch, push := results["fetch"], results["push"]
	fmt.Printf("fetch: clean %.1fs -> failed %.1fs (penalty %.1fs, cross-DC re-fetch)\n",
		fetch.clean, fetch.failed, fetch.failed-fetch.clean)
	fmt.Printf("push:  clean %.1fs -> failed %.1fs (penalty %.1fs, local re-read)\n",
		push.clean, push.failed, push.failed-push.clean)
	return nil
}

func runJob(topo *wanshuffle.Topology, dcA, dcB wanshuffle.DCID, push, fail bool) (*wanshuffle.Report, error) {
	cfg := wanshuffle.Config{
		Topology: topo,
		Seed:     5,
		Scheme:   wanshuffle.SchemeManual,
		Exec: wanshuffle.ExecConfig{
			PinReducersDC: &dcB,
			ComputeBps:    20e6,
			ComputeNoise:  -1,
			Trace:         true,
		},
	}
	if fail {
		cfg.Exec.ScriptedFailures = []wanshuffle.FailureSpec{
			{Stage: "sum", Part: 0, Attempt: 1, AtFrac: 0.5},
		}
	}
	ctx := wanshuffle.NewContext(cfg)

	// Input lives in dc-a; the reducers run in dc-b.
	var parts []wanshuffle.InputPartition
	for i, h := range topo.HostsIn(dcA) {
		var recs []wanshuffle.Pair
		for w := 0; w < 50; w++ {
			recs = append(recs, wanshuffle.KV(fmt.Sprintf("sensor-%02d", (w+i)%16), 1))
		}
		parts = append(parts, wanshuffle.InputPartition{
			Host: h, ModeledBytes: 120e6, Records: recs,
		})
	}
	in := ctx.Input("readings", parts)
	mapped := in.Map("normalize", func(p wanshuffle.Pair) wanshuffle.Pair { return p })
	if push {
		mapped = mapped.TransferTo(dcB)
	}
	sums := mapped.AggregateByKey("sum", 2, func(a, b wanshuffle.Value) wanshuffle.Value {
		return a.(int) + b.(int)
	})
	return ctx.Collect(sums)
}
