package perf

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/jobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/sim"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// simPerLayer fills the per-layer metrics of a traced sim-fig7 run.
func simPerLayer(res *Result, rec *Recorder, root int, o Options, passes []simPass) error {
	if len(passes) > 0 {
		first := passes[0]
		res.set("exec.task_attempts", float64(first.attempts))
		res.set("simnet.completed_flows", float64(first.flows))
		res.set("exec.virtual_jct_s_sum", first.jctSum)
		res.set("exec.cross_dc_mb_sum", first.crossSum/1e6)
		var secs, cells []float64
		verify := 0.0
		for _, p := range passes {
			secs = append(secs, p.sec)
			cells = append(cells, p.cellSecs...)
			verify += p.verifySec
		}
		res.set("exec.host_us_per_task_attempt", ratio(Median(secs)*1e6, float64(first.attempts)))
		res.set("exec.cell_s_p50", Percentile(cells, 50))
		res.set("exec.cell_s_p90", Percentile(cells, 90))
		res.set("perf.job_s_p50", Median(secs))
		res.set("perf.job_s_p90", Percentile(secs, 90))
		res.set("perf.records_per_s", ratio(float64(first.attempts*len(passes)), sum(secs)))
		res.set("perf.verify_s", verify)
	}

	// The simulator's own tracing (exec.Config.Trace): the same cells
	// with span recording on.
	rec.Do(root, "trace_on", func(id int) {
		built, _ := makeCells(o, true)
		p, _ := runPass(res, rec, nil, id, "traced[0]", built)
		cells := p.cellSecs
		res.set("exec.trace_on.cell_s_p50", Percentile(cells, 50))
		if base := res.Metrics["exec.cell_s_p50"].Value; base > 0 && len(cells) > 0 {
			res.set("trace.overhead_share", Percentile(cells, 50)/base-1)
		}
	})
	probe(rec, root, "obs.run_report", func() { simReportProbe(res, o) })
	if err := variantProbes(res, rec, root, o); err != nil {
		return err
	}
	layerProbes(res, rec, root, o)
	res.set("perf.peak_rss_mb", peakRSSMB())
	return nil
}

// simReportProbe runs one traced Sort/AggShuffle cell and times the run
// report and critical-path analysis on it, filling the same trace.* and
// obs.* names the live workloads fill from their last traced job.
func simReportProbe(res *Result, o Options) {
	w := workloads.Sort()
	ctx := core.NewContext(core.Config{
		Seed: o.Seed, Scheme: core.SchemeAggShuffle,
		Exec: exec.Config{Net: simnet.Config{JitterAmplitude: 0.25}, Trace: true},
	})
	inst := w.Make(ctx, workloads.Options{Seed: o.Seed, Scale: 1})
	rep, err := ctx.Save(inst.Target)
	if err != nil {
		return
	}
	var report *obs.Report
	res.set("obs.run_report_ms", 1e3*timeIt(5, func() { report = rep.RunReport(w.Name) }))
	setCriticalPathShares(res, report.CriticalPath)
}

// simProbes times the simulation kernel and the network model directly.
func simProbes(res *Result, o Options) {
	const events = 100_000
	sec := timeIt(3, func() {
		clock := sim.NewClock()
		rng := rand.New(rand.NewSource(o.Seed))
		for i := 0; i < events; i++ {
			clock.After(rng.Float64()*100, func() {})
		}
		clock.Run(0)
	})
	res.set("sim.clock_events_per_s", events/sec)
	for _, n := range []int{8, 64, 512} {
		res.set(fmt.Sprintf("simnet.flow_us.c%d", n), flowProbe(o.Seed, n))
	}
}

// flowProbe keeps `concurrent` flows in flight on the six-region topology
// (each completion starts a replacement) and returns host microseconds
// per completed flow: the cost of the max-min rate recomputation at that
// concurrency.
func flowProbe(seed int64, concurrent int) float64 {
	topo := topology.SixRegionEC2()
	clock := sim.NewClock()
	net := simnet.New(clock, topo, seed, simnet.Config{})
	workers := topo.Workers()
	total := 2*concurrent + 256
	started := 0
	var start func()
	start = func() {
		if started >= total {
			return
		}
		i := started
		started++
		// 7i+5 never equals i modulo the preset's 24 workers.
		src, dst := workers[i%len(workers)], workers[(7*i+5)%len(workers)]
		net.StartFlow(src, dst, float64(1+i%5)*4e6, "probe", start)
	}
	t0 := time.Now()
	for i := 0; i < concurrent; i++ {
		start()
	}
	clock.Run(0)
	return ratio(time.Since(t0).Seconds()*1e6, float64(net.CompletedFlows()))
}

// jobsProbe submits 1000 no-op jobs to a job service and returns the
// microseconds per job from first submission to last completion.
func jobsProbe() float64 {
	const n = 1000
	svc := jobs.New(jobs.Config{MaxQueue: n})
	defer svc.Close()
	handles := make([]*jobs.Job, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		j, err := svc.Submit(jobs.Submission{Tenant: "perf", Name: "noop",
			Run: func(context.Context) (*obs.Report, error) { return nil, nil }})
		if err != nil {
			return 0
		}
		handles = append(handles, j)
	}
	for _, j := range handles {
		<-j.Done()
	}
	return time.Since(t0).Seconds() * 1e6 / n
}
