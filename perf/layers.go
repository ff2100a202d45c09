package perf

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/telemetry"
	"wanshuffle/internal/trace"
)

// PerLayer lists the unbounded per-layer metrics every traced run
// reports. Layer names are module names. Three kinds share the list:
//
//   - run-derived numbers, read from the counts this workload's own jobs
//     return (livecluster.*_per_job, plan.task_s_*, trace.*, ...): 0 on a
//     workload that does not exercise the layer (every live number on
//     sim-fig7, every exec number on the live workloads);
//   - layer probes, which call one layer's public functions directly on a
//     fixed input and are the same code in every traced run (rdd.*_ns_*,
//     blockstore.mem.*, simnet.flow_us.*, livecluster.<variant>.*, ...);
//   - the benchmark's own overheads (perf.*).
//
// The arrows in README.md say which end-to-end metric each should move.
var PerLayer = []Metric{
	// livecluster: the workload's timed jobs, from each job's Stats.
	{Name: "livecluster.wire_bytes_per_job", Unit: "B", Better: Lower},
	{Name: "livecluster.raw_bytes_per_job", Unit: "B", Better: Lower},
	{Name: "livecluster.requests_per_job", Unit: "count", Better: Lower},
	{Name: "livecluster.bytes_per_request", Unit: "B", Better: Higher},
	{Name: "livecluster.pool_reuse_share", Unit: "ratio", Better: Higher},
	{Name: "livecluster.task_retries", Unit: "count", Better: Lower},
	{Name: "livecluster.map_stage_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.reduce_stage_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.new_close_s", Unit: "s", Better: Lower},
	// livecluster: variants of the probe sort job through public Config.
	{Name: "livecluster.base.job_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.flate.job_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.flate.wire_ratio", Unit: "ratio", Better: Lower},
	{Name: "livecluster.gzip.job_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.gzip.wire_ratio", Unit: "ratio", Better: Lower},
	{Name: "livecluster.chunk64.job_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.chunk4096.job_s_p50", Unit: "s", Better: Lower},
	{Name: "livecluster.heartbeat_cost_share", Unit: "ratio", Better: Lower},
	// plan
	{Name: "plan.task_s_p50", Unit: "s", Better: Lower},
	{Name: "plan.task_s_p99", Unit: "s", Better: Lower},
	{Name: "plan.membackend_job_s", Unit: "s", Better: Lower},
	{Name: "plan.build_job_us", Unit: "us", Better: Lower},
	{Name: "plan.predicted_transfer_s", Unit: "s", Better: Lower},
	{Name: "plan.measured_transfer_s", Unit: "s", Better: Lower},
	{Name: "plan.transfer_prediction_ratio", Unit: "ratio", Better: Lower},
	// rdd
	{Name: "rdd.eval_local_job_s", Unit: "s", Better: Lower},
	{Name: "rdd.map_side_prepare_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "rdd.bucket_hash_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "rdd.bucket_range_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "rdd.reduce_aggregate_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "rdd.size_of_ns_per_record", Unit: "ns", Better: Lower},
	// blockstore
	{Name: "blockstore.mem.put_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "blockstore.mem.shards_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "blockstore.mem.get_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "blockstore.spill.put_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "blockstore.spill.reload_ns_per_record", Unit: "ns", Better: Lower},
	{Name: "blockstore.spill.disk_bytes_per_record", Unit: "B", Better: Lower},
	{Name: "blockstore.spill.allocs_per_record", Unit: "count", Better: Lower},
	{Name: "blockstore.spill.events_per_job", Unit: "count", Better: Lower},
	{Name: "blockstore.spill.reload_bytes_per_job", Unit: "B", Better: Lower},
	// sim, simnet, sched, exec, core
	{Name: "sim.clock_events_per_s", Unit: "1/s", Better: Higher},
	{Name: "simnet.flow_us.c8", Unit: "us", Better: Lower},
	{Name: "simnet.flow_us.c64", Unit: "us", Better: Lower},
	{Name: "simnet.flow_us.c512", Unit: "us", Better: Lower},
	{Name: "exec.task_attempts", Unit: "count", Better: Lower},
	{Name: "simnet.completed_flows", Unit: "count", Better: Lower},
	{Name: "exec.host_us_per_task_attempt", Unit: "us", Better: Lower},
	{Name: "exec.cell_s_p50", Unit: "s", Better: Lower},
	{Name: "exec.cell_s_p90", Unit: "s", Better: Lower},
	{Name: "exec.trace_on.cell_s_p50", Unit: "s", Better: Lower},
	{Name: "core.make_instance_ms", Unit: "ms", Better: Lower},
	{Name: "exec.virtual_jct_s_sum", Unit: "s", Better: Lower},
	{Name: "exec.cross_dc_mb_sum", Unit: "MB", Better: Lower},
	// netobs, obs, trace, telemetry, jobs
	{Name: "netobs.observe_ns", Unit: "ns", Better: Lower},
	{Name: "netobs.estimate_ns", Unit: "ns", Better: Lower},
	{Name: "netobs.drift_abs_p50", Unit: "ratio", Better: Lower},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: Lower},
	{Name: "obs.snapshot_ms", Unit: "ms", Better: Lower},
	{Name: "obs.run_report_ms", Unit: "ms", Better: Lower},
	{Name: "trace.overhead_share", Unit: "ratio", Better: Lower},
	{Name: "trace.critical_path_ms", Unit: "ms", Better: Lower},
	{Name: "trace.cp_compute_share", Unit: "ratio", Better: Lower},
	{Name: "trace.cp_transfer_share", Unit: "ratio", Better: Lower},
	{Name: "trace.cp_wait_share", Unit: "ratio", Better: Lower},
	{Name: "trace.cp_unexplained_share", Unit: "ratio", Better: Lower},
	{Name: "telemetry.metrics_scrape_ms", Unit: "ms", Better: Lower},
	{Name: "jobs.dispatch_us_per_job", Unit: "us", Better: Lower},
	// the benchmark itself, and the end-to-end candidates that could not
	// hold a bound run to run (see results/BENCH_0.json)
	{Name: "perf.job_s_p50", Unit: "s", Better: Lower},
	{Name: "perf.job_s_p90", Unit: "s", Better: Lower},
	{Name: "perf.records_per_s", Unit: "1/s", Better: Higher},
	{Name: "perf.peak_rss_mb", Unit: "MB", Better: Lower},
	{Name: "perf.verify_s", Unit: "s", Better: Lower},
	{Name: "perf.gc_cycles", Unit: "count", Better: Lower},
	{Name: "perf.gc_pause_ms_total", Unit: "ms", Better: Lower},
}

// probeRecords is the input size of the fixed-input layer probes.
const probeRecords = 32_768

// timeIt runs fn reps times and returns the median duration in seconds.
func timeIt(reps int, fn func()) float64 {
	secs := make([]float64, reps)
	for i := range secs {
		t0 := time.Now()
		fn()
		secs[i] = time.Since(t0).Seconds()
	}
	return Median(secs)
}

// probe runs one layer probe inside its own span.
func probe(rec *Recorder, parent int, name string, fn func()) {
	rec.Do(parent, "probe "+name, func(int) { fn() })
}

// perLayer fills the per-layer metrics of a traced live run: first the
// numbers read from this workload's own jobs, then the same lineage on
// cheaper substrates, then the fixed-input probes.
func (lr *liveRun) perLayer(root int, samples []jobSample) error {
	res, rec := lr.res, lr.rec
	f := func(g func(jobSample) float64) []float64 { return pick(samples, g) }
	if n := float64(len(samples)); n > 0 {
		wire := sum(f(func(s jobSample) float64 { return float64(s.wire) }))
		requests := sum(f(func(s jobSample) float64 { return float64(s.requests) }))
		dials := sum(f(func(s jobSample) float64 { return float64(s.dials) }))
		res.set("livecluster.wire_bytes_per_job", wire/n)
		res.set("livecluster.raw_bytes_per_job", sum(f(func(s jobSample) float64 { return float64(s.raw) }))/n)
		res.set("livecluster.requests_per_job", requests/n)
		res.set("livecluster.bytes_per_request", ratio(wire, requests))
		res.set("livecluster.pool_reuse_share", 1-ratio(dials, requests))
		res.set("livecluster.task_retries", sum(f(func(s jobSample) float64 { return float64(s.retries) })))
		res.set("livecluster.map_stage_s_p50", Median(f(func(s jobSample) float64 { return s.mapStageSec })))
		res.set("livecluster.reduce_stage_s_p50", Median(f(func(s jobSample) float64 { return s.reduceStageSec })))
		res.set("blockstore.spill.events_per_job", sum(f(func(s jobSample) float64 { return float64(s.storage.SpillEvents) }))/n)
		res.set("blockstore.spill.reload_bytes_per_job", sum(f(func(s jobSample) float64 { return float64(s.storage.ReloadBytesTotal) }))/n)
		var tasks []float64
		for _, s := range samples {
			tasks = append(tasks, s.taskSecs...)
		}
		res.set("plan.task_s_p50", Percentile(tasks, 50))
		res.set("plan.task_s_p99", Percentile(tasks, 99))
		predicted := Median(f(func(s jobSample) float64 { return s.predictedSec }))
		res.set("plan.predicted_transfer_s", predicted)
		if predicted > 0 {
			// The map stage's window is when the pushes the planner
			// priced actually crossed the links.
			measured := Median(f(func(s jobSample) float64 { return s.mapStageSec }))
			res.set("plan.measured_transfer_s", measured)
			res.set("plan.transfer_prediction_ratio", ratio(measured, predicted))
		}
		secs := jobSecs(samples)
		res.set("perf.job_s_p50", Median(secs))
		res.set("perf.job_s_p90", Percentile(secs, 90))
		res.set("perf.records_per_s", ratio(float64(lr.in.records)*n, sum(secs)))
		res.set("perf.verify_s", sum(f(func(s jobSample) float64 { return s.verifySec })))
	}
	if lr.in.cfg.WANTopology != nil {
		var drifts []float64
		if ns := lr.cluster.NetworkStats(); ns != nil {
			for _, l := range ns.Links {
				if l.Drift != nil && l.Samples > 0 {
					drifts = append(drifts, math.Abs(*l.Drift-1))
				}
			}
		}
		res.set("netobs.drift_abs_p50", Median(drifts))
	}
	untracedP50 := Median(jobSecs(samples))
	lr.close() // one cluster at a time: the probes below start their own

	if err := lr.traceOn(root, untracedP50); err != nil {
		return err
	}
	lr.cheaperSubstrates(root)
	probe(rec, root, "livecluster.new_close", func() {
		cfg := lr.in.cfg
		res.set("livecluster.new_close_s", timeIt(3, func() {
			if c, err := livecluster.New(cfg); err == nil {
				c.Close()
			}
		}))
	})
	if err := variantProbes(res, rec, root, lr.o); err != nil {
		return err
	}
	layerProbes(res, rec, root, lr.o)
	res.set("perf.peak_rss_mb", peakRSSMB())
	return nil
}

// traceOn repeats the workload on a second cluster with the program's own
// public tracing switched on (Config.Trace), which gives the tracing
// overhead against the untraced jobs just measured, the run report's cost
// and the critical-path breakdown of the last job.
func (lr *liveRun) traceOn(root int, untracedP50 float64) error {
	res, rec := lr.res, lr.rec
	id := rec.Begin(root, "trace_on")
	defer rec.End(id)
	tr := &trace.SyncRecorder{}
	if err := lr.setup(id, func(c *livecluster.Config) { c.Trace = tr }); err != nil {
		return fmt.Errorf("%s: traced cluster: %w", lr.w.name, err)
	}
	defer lr.close()
	samples := lr.loop(id, warmupJobs, lr.o.Seconds*0.15, 3)
	if len(samples) == 0 || lr.lastStats == nil {
		return nil
	}
	res.set("trace.overhead_share", ratio(Median(jobSecs(samples)), untracedP50)-1)

	// The recorder accumulates every job's spans, each on its own run
	// clock; the last job's are told apart by their trace ID.
	all := tr.Spans()
	last := &trace.SyncRecorder{}
	// IDs are "live-<start in unix nanoseconds>", all the same length
	// within one process, so the greatest string is the latest job.
	var newest trace.TraceID
	for _, sp := range all {
		if sp.Trace > newest {
			newest = sp.Trace
		}
	}
	for _, sp := range all {
		if sp.Trace == newest {
			last.Add(sp)
		}
	}
	stats := lr.lastStats
	var report *obs.Report
	probe(rec, id, "obs.run_report", func() {
		res.set("obs.run_report_ms", 1e3*timeIt(5, func() { report = stats.RunReport(lr.w.name, last) }))
	})
	probe(rec, id, "trace.critical_path", func() {
		topo := lr.cluster.Topology()
		spans := last.Spans()
		res.set("trace.critical_path_ms", 1e3*timeIt(5, func() {
			_ = trace.AnalyzeCriticalPath(trace.EnforceCausality(spans), topo)
		}))
	})
	setCriticalPathShares(res, report.CriticalPath)
	probe(rec, id, "telemetry.metrics_scrape", func() {
		h := telemetry.Handler(telemetry.Config{Registry: func() *obs.Registry { return stats.Events.Registry() }})
		res.set("telemetry.metrics_scrape_ms", 1e3*timeIt(10, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		}))
	})
	return nil
}

// cheaperSubstrates runs the workload's lineage with layers peeled off:
// through plan.Driver over the in-memory backend (driver and store, no
// sockets or codec) and through rdd.CollectLocal (single-threaded, no
// driver either). job_s_p50 minus the first is what the wire costs; the
// first minus the second is what driving and storing costs.
func (lr *liveRun) cheaperSubstrates(root int) {
	res, rec := lr.res, lr.rec
	probe(rec, root, "plan.membackend_job", func() {
		res.set("plan.membackend_job_s", timeIt(3, func() {
			job, err := plan.BuildJob(lr.in.build())
			if err != nil {
				return
			}
			be := plan.NewMemBackend(lr.in.cfg.Workers)
			drv := plan.NewDriver(job, be, plan.DriverConfig{Aggregate: lr.in.cfg.Mode == livecluster.ModePush, SiteSlots: 2})
			_, _ = drv.RunContext(context.Background())
			_ = be.Store().Close()
		}))
	})
	probe(rec, root, "rdd.eval_local_job", func() {
		res.set("rdd.eval_local_job_s", timeIt(3, func() { _ = rdd.CollectLocal(lr.in.build()) }))
	})
	probe(rec, root, "plan.build_job", func() {
		target := lr.in.build()
		res.set("plan.build_job_us", 1e6*timeIt(20, func() { _, _ = plan.BuildJob(target) }))
	})
}

// variantProbes times the probe sort job (sort-push's shape at half of
// probeRecords records, three jobs after set-up's one warm-up) under each
// data-plane setting reachable through public Config: the only outside
// handle on the unexported compression and chunk-framing paths.
func variantProbes(res *Result, rec *Recorder, root int, o Options) error {
	id := rec.Begin(root, "probe livecluster.variants")
	defer rec.End(id)
	probeOpts := o
	probeOpts.Jobs = 3
	w := liveWorkload{name: "probe-sort", generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
		in := sortInput(o, rec, parent, o.scaled(probeRecords/2, 400), 8, 8, splitRoundRobin)
		in.cfg = livecluster.Config{Workers: 4, Mode: livecluster.ModePush}
		return in, nil
	}}
	type outcome struct{ p50, wireRatio float64 }
	run := func(name string, edit func(*livecluster.Config)) (outcome, error) {
		// Failures here are probe failures, not workload failures: they
		// are counted on a scratch result and surface as an error.
		scratch := newResult(name, probeOpts)
		lr := &liveRun{w: w, o: probeOpts, rec: rec, res: scratch}
		vid := rec.Begin(id, "variant "+name)
		defer rec.End(vid)
		if err := lr.setup(vid, edit); err != nil {
			return outcome{}, fmt.Errorf("variant %s: %w", name, err)
		}
		defer lr.close()
		samples := lr.loop(vid, 1, 0, 1)
		if scratch.Failed > 0 || len(samples) == 0 {
			return outcome{}, fmt.Errorf("variant %s: %d of %d jobs failed: %v", name, scratch.Failed, scratch.Attempted, scratch.Errors)
		}
		wire := sum(pick(samples, func(s jobSample) float64 { return float64(s.wire) }))
		raw := sum(pick(samples, func(s jobSample) float64 { return float64(s.raw) }))
		return outcome{p50: Median(jobSecs(samples)), wireRatio: ratio(wire, raw)}, nil
	}
	variants := []struct {
		name string
		edit func(*livecluster.Config)
	}{
		{"base", nil},
		{"flate", func(c *livecluster.Config) { c.Compression = "flate" }},
		{"gzip", func(c *livecluster.Config) { c.Compression = "gzip" }},
		{"chunk64", func(c *livecluster.Config) { c.ChunkRecords = 64 }},
		{"chunk4096", func(c *livecluster.Config) { c.ChunkRecords = 4096 }},
		{"noheartbeat", func(c *livecluster.Config) { c.HeartbeatInterval = -1 }},
	}
	got := map[string]outcome{}
	for _, v := range variants {
		out, err := run(v.name, v.edit)
		if err != nil {
			return err
		}
		got[v.name] = out
	}
	res.set("livecluster.base.job_s_p50", got["base"].p50)
	res.set("livecluster.flate.job_s_p50", got["flate"].p50)
	res.set("livecluster.flate.wire_ratio", got["flate"].wireRatio)
	res.set("livecluster.gzip.job_s_p50", got["gzip"].p50)
	res.set("livecluster.gzip.wire_ratio", got["gzip"].wireRatio)
	res.set("livecluster.chunk64.job_s_p50", got["chunk64"].p50)
	res.set("livecluster.chunk4096.job_s_p50", got["chunk4096"].p50)
	// What the default 50 ms heartbeat costs a job: default over disabled.
	res.set("livecluster.heartbeat_cost_share", ratio(got["base"].p50, got["noheartbeat"].p50)-1)
	return nil
}

// layerProbes calls each remaining layer's public functions directly on
// fixed inputs drawn from the seed.
func layerProbes(res *Result, rec *Recorder, root int, o Options) {
	n := o.scaled(probeRecords, 400)
	recs := SortRecords(o.Seed, n)
	perRecord := func(sec float64, count int) float64 { return sec * 1e9 / float64(count) }

	probe(rec, root, "rdd", func() {
		words := make([]rdd.Pair, 0, n)
		for _, line := range WordCountLines(o.Seed, n/8) {
			for _, w := range strings.Fields(line.Value.(string)) {
				words = append(words, rdd.KV(w, 1))
			}
		}
		combine := &rdd.ShuffleSpec{MapSideCombine: true, Combine: func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }}
		res.set("rdd.map_side_prepare_ns_per_record", perRecord(timeIt(5, func() { _ = rdd.MapSidePrepare(combine, words) }), len(words)))
		hash := &rdd.ShuffleSpec{Partitioner: rdd.NewHashPartitioner(8)}
		res.set("rdd.bucket_hash_ns_per_record", perRecord(timeIt(5, func() { _ = rdd.BucketRecords(hash, recs) }), n))
		ranger := rdd.NewRangePartitioner(8)
		ranger.Prepare(rdd.SampleKeys(recs, 1000))
		byRange := &rdd.ShuffleSpec{Partitioner: ranger, SortKeys: true}
		res.set("rdd.bucket_range_ns_per_record", perRecord(timeIt(5, func() { _ = rdd.BucketRecords(byRange, recs) }), n))
		res.set("rdd.reduce_aggregate_ns_per_record", perRecord(timeIt(5, func() { _ = rdd.ReduceAggregate(byRange, recs) }), n))
		res.set("rdd.size_of_ns_per_record", perRecord(timeIt(5, func() { _ = rdd.SizeOfAll(recs) }), n))
	})

	probe(rec, root, "blockstore", func() { blockstoreProbes(res, o, recs) })
	probe(rec, root, "sim", func() { simProbes(res, o) })

	probe(rec, root, "netobs", func() {
		est := netobs.NewEstimator(netobs.Config{})
		sites := []string{"a", "b", "c", "d", "e", "f"}
		const ops = 50_000
		res.set("netobs.observe_ns", 1e9/ops*timeIt(3, func() {
			for i := 0; i < ops; i++ {
				est.ObserveTransfer(sites[i%6], sites[(i/6)%6], 65536, 0.01)
			}
		}))
		// A lookup sorts the pair's sample window for its percentiles.
		res.set("netobs.estimate_ns", 1e9/(ops/10)*timeIt(3, func() {
			for i := 0; i < ops/10; i++ {
				_, _ = est.Estimate(sites[i%6], sites[(i/6)%6])
			}
		}))
	})

	probe(rec, root, "obs", func() {
		reg := obs.NewRegistry()
		const ops = 100_000
		// Looked up by name and labels on every increment, as the data
		// plane's accounting path does.
		res.set("obs.counter_inc_ns", 1e9/ops*timeIt(3, func() {
			for i := 0; i < ops; i++ {
				reg.Counter("bytes_moved_total", obs.Labels{"class": "push"}).Add(1)
			}
		}))
		for i := 0; i < 100; i++ {
			labels := obs.Labels{"worker": fmt.Sprint(i % 10), "shuffle": fmt.Sprint(i / 10)}
			reg.Counter("probe_total", labels).Add(int64(i))
			reg.Gauge("probe_gauge", labels).Set(float64(i))
			reg.Histogram("probe_sec", []float64{0.001, 0.01, 0.1, 1}, labels).Observe(float64(i) / 100)
		}
		res.set("obs.snapshot_ms", 1e3*timeIt(10, func() { _ = reg.Snapshot() }))
	})

	probe(rec, root, "jobs", func() { res.set("jobs.dispatch_us_per_job", jobsProbe()) })
	probe(rec, root, "core.make_instance", func() {
		_, secs := makeCells(o, false)
		res.set("core.make_instance_ms", 1e3*Median(secs))
	})
}

// blockstoreProbes drives both store implementations through one storage
// cycle: eight map outputs put, every reduce shard of each read, then the
// flat view read.
func blockstoreProbes(res *Result, o Options, recs []rdd.Pair) {
	const outputs, reduceParts = 8, 8
	per := len(recs) / outputs
	spec := &rdd.ShuffleSpec{Partitioner: rdd.NewHashPartitioner(reduceParts)}
	bucket := func(rs []rdd.Pair) ([][]rdd.Pair, error) { return rdd.BucketRecords(spec, rs), nil }
	key := func(m int) blockstore.Key { return blockstore.Key{Shuffle: 1, MapPart: m} }
	total := float64(outputs * per)
	ns := func(sec float64) float64 { return sec * 1e9 / total }
	cycle := func(store blockstore.Store) (put, shards, get float64) {
		t0 := time.Now()
		for m := 0; m < outputs; m++ {
			_, _, _ = store.Put(key(m), blockstore.Output{Attempt: 1, Records: recs[m*per : (m+1)*per]})
		}
		put = time.Since(t0).Seconds()
		t0 = time.Now()
		for m := 0; m < outputs; m++ {
			_, _ = store.Shards(key(m), bucket)
		}
		shards = time.Since(t0).Seconds()
		t0 = time.Now()
		for m := 0; m < outputs; m++ {
			_, _ = store.Get(key(m))
		}
		get = time.Since(t0).Seconds()
		return put, shards, get
	}

	var puts, shardReads, gets []float64
	for i := 0; i < 5; i++ {
		mem := blockstore.NewMemStore(nil)
		p, s, g := cycle(mem)
		_ = mem.Close()
		puts, shardReads, gets = append(puts, p), append(shardReads, s), append(gets, g)
	}
	res.set("blockstore.mem.put_ns_per_record", ns(Median(puts)))
	res.set("blockstore.mem.shards_ns_per_record", ns(Median(shardReads)))
	res.set("blockstore.mem.get_ns_per_record", ns(Median(gets)))

	dir, err := spillDir(o)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	// One output resident at a time: every put evicts, every read reloads.
	budget := int64(rdd.SizeOfAll(recs[:per])) + 1
	puts, shardReads = nil, nil
	var allocs, diskBytes float64
	for i := 0; i < 3; i++ {
		store, err := blockstore.NewSpillStore(blockstore.SpillConfig{MemoryBudget: budget, Dir: dir}, nil)
		if err != nil {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, s, _ := cycle(store)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs - m0.Mallocs)
		diskBytes = 0
		files, _ := filepath.Glob(filepath.Join(store.Dir(), "*"))
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				diskBytes += float64(st.Size())
			}
		}
		spilled := store.Accountant().Stats().SpilledOutputs
		if spilled > 0 {
			diskBytes /= float64(spilled * per)
		}
		_ = store.Close()
		puts, shardReads = append(puts, p), append(shardReads, s)
	}
	res.set("blockstore.spill.put_ns_per_record", ns(Median(puts)))
	res.set("blockstore.spill.reload_ns_per_record", ns(Median(shardReads)))
	res.set("blockstore.spill.disk_bytes_per_record", diskBytes)
	res.set("blockstore.spill.allocs_per_record", allocs/total)
}

// setCriticalPathShares reports a run report's critical-path fractions
// and the share that is neither compute, transfer nor wait (the float
// residue of a complete attribution reads 0).
func setCriticalPathShares(res *Result, cp *trace.CriticalPath) {
	if cp == nil || cp.TotalSec <= 0 {
		return
	}
	res.set("trace.cp_compute_share", cp.ComputeFrac)
	res.set("trace.cp_transfer_share", cp.TransferFrac)
	res.set("trace.cp_wait_share", cp.WaitFrac)
	rest := 1 - cp.ComputeFrac - cp.TransferFrac - cp.WaitFrac
	if math.Abs(rest) < 1e-9 {
		rest = 0
	}
	res.set("trace.cp_unexplained_share", rest)
}

// memWindow snapshots the collector's counters around a measured phase.
type memWindow struct{ before runtime.MemStats }

func openMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// close reports the collector activity since the window opened.
func (w *memWindow) close(res *Result) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.set("perf.gc_cycles", float64(after.NumGC-w.before.NumGC))
	res.set("perf.gc_pause_ms_total", float64(after.PauseTotalNs-w.before.PauseTotalNs)/1e6)
}
