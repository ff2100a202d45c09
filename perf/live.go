package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/core"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// Options configure one run.
type Options struct {
	// Seed drives every generated input; the program under test sees only
	// the inputs.
	Seed int64
	// Seconds is the measuring window: timed jobs are submitted, one at a
	// time, until it is used up. Metrics are per job or per record, so
	// the job count it happens to fit does not enter them.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	Trace bool
	// Scale shrinks inputs (tests run at 1/50). Zero means 1.
	Scale float64
	// Jobs, when positive, fixes the number of timed jobs instead of
	// filling Seconds: both sides of a paired comparison then do
	// identical work.
	Jobs int
	// OutDir receives trace files and holds spill directories. Empty
	// means "out".
	OutDir string
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) outDir() string {
	if o.OutDir == "" {
		return "out"
	}
	return o.OutDir
}

// wantsJob says whether a loop that has submitted i timed jobs since
// start submits another: exactly o.Jobs of them when that is set, else at
// least minJobs and until the window of seconds is used up.
func (o Options) wantsJob(i, minJobs int, start time.Time, seconds float64) bool {
	if o.Jobs > 0 {
		return i < o.Jobs
	}
	return i < minJobs || time.Since(start).Seconds() < seconds
}

// scaled shrinks a record count by the run's scale, never below floor.
func (o Options) scaled(n, floor int) int {
	n = int(float64(n) * o.scale())
	if n < floor {
		n = floor
	}
	return n
}

const (
	// warmupJobs run untimed on a new cluster before the timed jobs
	// (dials, pools, lazy gob type registration). The first of them is the
	// last step of set-up.
	warmupJobs = 2
	// minTimedJobs keeps a median meaningful when a slow machine fits few
	// jobs into the window; a traced run, which shares its window with
	// the layer probes, settles for minTracedJobs.
	minTimedJobs  = 5
	minTracedJobs = 3
	// tracedWindowShare is the part of the window a traced run spends on
	// the workload's own timed jobs.
	tracedWindowShare = 0.4
	// An untraced run sets up at least minSetups times, and goes on while
	// set-up has taken less than setupBudgetSec in all, up to maxSetups;
	// setup_s is the median. A traced run sets up once.
	minSetups      = 5
	maxSetups      = 15
	setupBudgetSec = 3.0
	// minPoolReuse is the pooled-connection reuse the warm cluster must
	// show over the timed jobs. The pool dials only when more requests to
	// one peer overlap than ever before, so after warm-up it is 1 or a
	// stray dial short of it.
	minPoolReuse = 0.98
)

// liveInput is one workload's generated input with its reference.
type liveInput struct {
	// records is the number of input records one job processes.
	records int
	// inputBytes is rdd.SizeOfAll over the input.
	inputBytes float64
	// build makes the job's lineage on a fresh graph.
	build func() *rdd.RDD
	// verify checks one job's output against the reference.
	verify func(out []rdd.Pair) error
	// cfg is the cluster configuration (spill budget and topology may
	// depend on the input).
	cfg livecluster.Config
}

// liveWorkload describes one live workload.
type liveWorkload struct {
	name string
	// generate draws the input from the seed and computes the reference;
	// rec/parent receive the generate and reference spans.
	generate func(o Options, rec *Recorder, parent int) (*liveInput, error)
	// spills says whether the workload must spill (true) or must not.
	spills bool
	// linkBound marks a workload whose job time is set by paced links, not
	// by the processor: its wall clock is reported uncorrected.
	linkBound bool
}

// sortInput generates a sort workload's input: n records in parts
// partitions, sorted into reduceParts.
func sortInput(o Options, rec *Recorder, parent, n, parts, reduceParts int, split func([]rdd.Pair, int) [][]rdd.Pair) *liveInput {
	var recs []rdd.Pair
	var partitions [][]rdd.Pair
	rec.Do(parent, "generate", func(int) {
		recs = SortRecords(o.Seed, n)
		partitions = split(recs, parts)
	})
	in := &liveInput{records: n}
	rec.Do(parent, "reference", func(int) {
		want := Checksum(recs)
		in.inputBytes = rdd.SizeOfAll(recs)
		in.verify = func(out []rdd.Pair) error { return verifySorted(out, n, want) }
	})
	in.build = func() *rdd.RDD {
		return inputRDD(rdd.NewGraph(), "sort.input", partitions).SortByKey("sort.sorted", reduceParts)
	}
	return in
}

// spillDir makes a fresh directory for spill files under the run's
// output directory, so nothing is written outside the checkout.
func spillDir(o Options) (string, error) {
	base := filepath.Join(o.outDir(), "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "spill-")
}

// wanTopology derives the sort-push-wan topology from the SixRegionEC2
// preset: the same six regions, inter-DC rates and latencies, but one
// worker host per region and every rate divided by slowdown. The stock
// preset with fewer than 24 workers maps all workers into its first two
// regions, and pacing is per connection, so as-is it barely shapes a run.
func wanTopology(slowdown float64) (*topology.Topology, error) {
	preset := topology.SixRegionEC2()
	b := topology.NewBuilder()
	names := preset.DCNames()
	ids := make([]topology.DCID, len(names))
	for i, name := range names {
		ids[i] = b.AddDC(name, 1, 2, 1*topology.Gbps)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			a, c := topology.DCID(i), topology.DCID(j)
			b.Link(ids[i], ids[j], preset.InterBps(a, c)/slowdown, preset.DCLatency(a, c))
		}
	}
	b.IntraLatency(0.5 * topology.Millisecond)
	b.Driver(ids[preset.DriverDC])
	return b.Build()
}

// Record counts at scale 1. They were sized on a 2-core box so that the
// 10 s window of BENCHMARK.json fits some tens of jobs on the loopback
// workloads; they do not change with the machine.
const (
	sortRecordsPerJob  = 100_000
	spillRecordsPerJob = 40_000
	wanRecordsPerJob   = 30_000
	wordCountLines     = 150_000
	// wanSlowdown divides the preset's 80-300 Mbps inter-region rates.
	wanSlowdown = 20
)

func liveWorkloads() []liveWorkload {
	sortLike := func(name string, mode livecluster.Mode) liveWorkload {
		return liveWorkload{name: name, generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
			in := sortInput(o, rec, parent, o.scaled(sortRecordsPerJob, 400), 8, 8, splitRoundRobin)
			in.cfg = livecluster.Config{Workers: 4, Mode: mode}
			return in, nil
		}}
	}
	return []liveWorkload{
		sortLike(SortPush, livecluster.ModePush),
		sortLike(SortFetch, livecluster.ModeFetch),
		{name: WordCountPush, generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
			n := o.scaled(wordCountLines, 400)
			var lines []rdd.Pair
			var partitions [][]rdd.Pair
			rec.Do(parent, "generate", func(int) {
				lines = WordCountLines(o.Seed, n)
				partitions = splitRoundRobin(lines, 8)
			})
			in := &liveInput{records: n, cfg: livecluster.Config{Workers: 4, Mode: livecluster.ModePush}}
			rec.Do(parent, "reference", func(int) {
				want := wordCounts(lines)
				in.inputBytes = rdd.SizeOfAll(lines)
				in.verify = func(out []rdd.Pair) error { return verifyCounts(out, want) }
			})
			in.build = func() *rdd.RDD {
				words := inputRDD(rdd.NewGraph(), "wc.text", partitions).FlatMap("wc.split", func(p rdd.Pair) []rdd.Pair {
					fields := strings.Fields(p.Value.(string))
					out := make([]rdd.Pair, len(fields))
					for i, w := range fields {
						out[i] = rdd.KV(w, 1)
					}
					return out
				})
				return words.ReduceByKey("wc.count", 8, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })
			}
			return in, nil
		}},
		{name: PageRankPush, generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
			// Built at the seed exactly as `wansim -live` builds it; the
			// workload fixes its own size, so Scale does not apply.
			w := workloads.PageRank()
			opts := workloads.Options{Seed: o.Seed, Scale: 1}
			instance := func() *workloads.Instance {
				return w.Make(core.NewContext(core.Config{Seed: o.Seed, Scheme: core.SchemeAggShuffle}), opts)
			}
			in := &liveInput{cfg: livecluster.Config{Workers: 6, Mode: livecluster.ModePush}}
			var first *workloads.Instance
			rec.Do(parent, "generate", func(int) {
				first = instance()
				for _, r := range first.Target.Graph().RDDs() {
					for _, p := range r.Input {
						in.records += len(p.Records)
						in.inputBytes += rdd.SizeOfAll(p.Records)
					}
				}
			})
			rec.Do(parent, "reference", func(int) {
				// Instance.Validate recomputes the in-memory reference on
				// every call; running it once here is the set-up's share.
				_ = w.MakeReference(opts)
			})
			// Each job needs its own graph and its own validator.
			var cur *workloads.Instance
			in.build = func() *rdd.RDD {
				cur = instance()
				return cur.Target
			}
			in.verify = func(out []rdd.Pair) error { return cur.Validate(out) }
			return in, nil
		}},
		{name: SortPushSpill, spills: true, generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
			n := o.scaled(spillRecordsPerJob, 400)
			in := sortInput(o, rec, parent, n, 8, 8, splitRoundRobin)
			dir, err := spillDir(o)
			if err != nil {
				return nil, err
			}
			// One map output's bytes plus one, the shape
			// BenchmarkBlockStoreSpill uses: every put evicts, every
			// shard read reloads.
			// One task per worker at a time, so that the aggregator's
			// reducers read its store one after another and the number
			// of evictions and reloads does not depend on how two of
			// them happen to interleave.
			in.cfg = livecluster.Config{
				Workers: 4, Mode: livecluster.ModePush, TasksPerWorker: 1,
				MemoryBudget: int64(in.inputBytes/8) + 1, SpillDir: dir,
			}
			return in, nil
		}},
		{name: SortPushWAN, linkBound: true, generate: func(o Options, rec *Recorder, parent int) (*liveInput, error) {
			topo, err := wanTopology(wanSlowdown)
			if err != nil {
				return nil, err
			}
			regions := topo.NumDCs()
			in := sortInput(o, rec, parent, o.scaled(wanRecordsPerJob, 400), regions, 8, splitDriverHeavy)
			// Pacing is per connection, so the default push fan-out of two
			// streams would double every link's rate; one stream per push
			// keeps a link's bytes on one paced connection.
			in.cfg = livecluster.Config{Workers: regions, Mode: livecluster.ModePush, WANTopology: topo, PushFanout: 1}
			return in, nil
		}},
	}
}

// setupPhase is a run's repeated set-ups: the wall clock of each and
// the reference kernel samples taken before and after each. The phase is
// a second or two long, shorter than the machine's speed swings, and five
// set-ups give too few samples to correct each by its own two: setup_s is
// the median set-up corrected by the median sample of the whole phase.
type setupPhase struct{ secs, refs []float64 }

// more says whether the run should set up once more.
func (p *setupPhase) more(o Options) bool {
	if o.Trace || o.Jobs > 0 {
		return len(p.secs) == 0 // traced and fixed-work runs set up once
	}
	return len(p.secs) < minSetups || (len(p.secs) < maxSetups && sum(p.secs) < setupBudgetSec)
}

// time runs one set-up and records it. ref is nil where set-up time is
// not corrected (traced runs, link-bound workloads).
func (p *setupPhase) time(ref *refTimer, setup func() error) error {
	if ref != nil {
		// Collect the previous set-up's garbage now, not at some point
		// inside this one.
		runtime.GC()
		p.refs = append(p.refs, ref.sample())
	}
	t0 := time.Now()
	err := setup()
	p.secs = append(p.secs, time.Since(t0).Seconds())
	if ref != nil {
		p.refs = append(p.refs, ref.sample())
	}
	return err
}

// corrected is the median set-up in speed-corrected seconds.
func (p *setupPhase) corrected() float64 { return Median(p.secs) * speedFactor(p.refs...) }

// jobSample is what one timed job leaves behind.
type jobSample struct {
	sec            float64
	factor         float64 // speed correction of sec (1 in traced runs and on link-bound workloads)
	verifySec      float64
	mallocs        uint64
	allocBytes     uint64
	wire, raw      int64
	requests       int64
	dials          int64
	retries        int
	mapStageSec    float64
	reduceStageSec float64
	predictedSec   float64
	storage        blockstore.Stats // delta over the job
	taskSecs       []float64        // traced runs only
}

// liveRun is one cluster with the loop state around it.
type liveRun struct {
	w       liveWorkload
	o       Options
	rec     *Recorder
	res     *Result
	in      *liveInput
	cluster *livecluster.Cluster
	lastSt  blockstore.Stats
	// ref, when set, times the reference kernel around every bounded
	// interval (untraced runs of processor-bound workloads; see calib.go).
	ref *refTimer
	// lastStats is the most recent job's stats (kept for the traced
	// run's report probes).
	lastStats *livecluster.Stats
}

// setup generates the input, computes the reference, starts the cluster
// and runs the first job on it. The first job belongs to set-up because it
// pays what a new cluster pays once (dials, pools, lazy registration):
// work a later change moves out of the steady jobs into cluster start or
// first use shows here. Without it set-up is 5-25 ms, and whether one
// collection happens to fall inside decides the number.
func (lr *liveRun) setup(parent int, cfgEdit func(*livecluster.Config)) error {
	id := lr.rec.Begin(parent, "setup")
	defer lr.rec.End(id)
	in, err := lr.w.generate(lr.o, lr.rec, id)
	if err != nil {
		return err
	}
	if cfgEdit != nil {
		cfgEdit(&in.cfg)
	}
	var cluster *livecluster.Cluster
	lr.rec.Do(id, "cluster_new", func(int) { cluster, err = livecluster.New(in.cfg) })
	if err != nil {
		return err
	}
	lr.in, lr.cluster, lr.lastSt = in, cluster, blockstore.Stats{}
	lr.job(id, "warmup[0]", false)
	return nil
}

// close stops the cluster and removes its spill directory.
func (lr *liveRun) close() {
	if lr.cluster != nil {
		lr.cluster.Close()
		lr.cluster = nil
	}
	if lr.in != nil && lr.in.cfg.SpillDir != "" {
		_ = os.RemoveAll(lr.in.cfg.SpillDir) // best effort: a leftover directory is under out/, which is ignored
	}
}

// job submits one job and waits for it (the closed loop's one client),
// then verifies the output outside the job timer. Errors and failed
// verifications are counted into the result, not returned. A timed job
// is taken together with the reference kernel and, in a traced run, keeps
// its task durations; a warm-up is neither.
func (lr *liveRun) job(parent int, name string, timed bool) (jobSample, bool) {
	var s jobSample
	id := lr.rec.Begin(parent, name)
	defer lr.rec.End(id)
	target := lr.in.build()
	lr.res.Attempted++
	var m0, m1 runtime.MemStats
	s.factor = 1
	corrected := timed && lr.ref != nil
	var refBefore float64
	if corrected {
		refBefore = lr.ref.sample()
	}
	runtime.ReadMemStats(&m0)
	runID := lr.rec.Begin(id, "cluster_run")
	t0 := time.Now()
	out, stats, err := lr.cluster.Run(target)
	s.sec = time.Since(t0).Seconds()
	lr.rec.End(runID)
	runtime.ReadMemStats(&m1)
	if corrected {
		s.factor = speedFactor(refBefore, lr.ref.sample())
	}
	if err != nil {
		lr.res.fail(fmt.Errorf("%s %s: %w", lr.w.name, name, err))
		return s, false
	}
	s.mallocs, s.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	verifyID := lr.rec.Begin(id, "verify")
	v0 := time.Now()
	err = lr.in.verify(out)
	s.verifySec = time.Since(v0).Seconds()
	lr.rec.End(verifyID)
	if err != nil {
		lr.res.fail(fmt.Errorf("%s %s: wrong output: %w", lr.w.name, name, err))
		return s, false
	}
	lr.lastStats = stats
	s.wire, s.raw = stats.BytesOverTCP, stats.BytesRaw
	// A heartbeat that arrived as the job ended may still be adding its
	// (already flushed, so zero) request counts to the returned Stats;
	// the cluster adds them atomically, so they are read the same way.
	s.requests = atomic.LoadInt64(&stats.PushConnections) + atomic.LoadInt64(&stats.FetchConnections) + atomic.LoadInt64(&stats.SampleRequests)
	s.dials, s.retries = atomic.LoadInt64(&stats.Dials), stats.Retries
	for i, sp := range stats.StageSpans {
		if i == len(stats.StageSpans)-1 {
			s.reduceStageSec = sp.End - sp.Start
		} else if i == 0 {
			s.mapStageSec = sp.End - sp.Start
		}
	}
	for _, d := range stats.Placements() {
		s.predictedSec += d.CostSec
	}
	// The accountant is cumulative across jobs on a reused cluster, so
	// storage numbers are taken as per-job deltas.
	now := lr.cluster.StorageStats()
	s.storage = blockstore.Stats{
		SpillEvents:       now.SpillEvents - lr.lastSt.SpillEvents,
		SpilledBytesTotal: now.SpilledBytesTotal - lr.lastSt.SpilledBytesTotal,
		ReloadEvents:      now.ReloadEvents - lr.lastSt.ReloadEvents,
		ReloadBytesTotal:  now.ReloadBytesTotal - lr.lastSt.ReloadBytesTotal,
	}
	lr.lastSt = now
	if timed && lr.o.Trace {
		s.taskSecs = taskDurations(stats)
	}
	return s, true
}

// taskDurations pairs each task attempt's started event with its
// finished event and returns the durations in seconds.
func taskDurations(stats *livecluster.Stats) []float64 {
	type key struct{ stage, part, attempt int }
	started := map[key]float64{}
	var out []float64
	for _, ev := range stats.Events.TaskEvents() {
		k := key{ev.Stage, ev.Part, ev.Attempt}
		switch ev.Phase {
		case obs.PhaseStarted:
			started[k] = ev.Time
		case obs.PhaseFinished:
			if t0, ok := started[k]; ok {
				out = append(out, ev.Time-t0)
			}
		}
	}
	return out
}

// loop runs the warm-ups set-up left over and then timed jobs, one at a
// time, until the window is used up and at least minJobs ran (or exactly
// o.Jobs of them).
func (lr *liveRun) loop(parent int, warmups int, seconds float64, minJobs int) []jobSample {
	for i := 1; i < warmups; i++ {
		lr.job(parent, fmt.Sprintf("warmup[%d]", i), false)
	}
	var samples []jobSample
	start := time.Now()
	for i := 0; lr.o.wantsJob(i, minJobs, start, seconds); i++ {
		if s, ok := lr.job(parent, fmt.Sprintf("job[%d]", i), true); ok {
			samples = append(samples, s)
		}
	}
	return samples
}

// pick collects one field of every sample.
func pick(samples []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func jobSecs(samples []jobSample) []float64 {
	return pick(samples, func(s jobSample) float64 { return s.sec })
}

// checkLive asserts the workload exercised the layer it is here for.
func (lr *liveRun) checkLive(samples []jobSample) {
	res := lr.res
	if len(samples) == 0 {
		res.check("timed_jobs", false, "no timed job succeeded")
		return
	}
	spills := pick(samples, func(s jobSample) float64 { return float64(s.storage.SpillEvents) })
	lo, hi := Percentile(spills, 0), Percentile(spills, 100)
	if lr.w.spills {
		// The same count every job, give or take which output the last
		// push happened to leave resident.
		res.check("spills_every_job", lo > 0 && hi-lo <= 2, "spill events per job between %.0f and %.0f", lo, hi)
	} else {
		res.check("no_spills", hi == 0, "at most %.0f spill events in a job", hi)
	}
	requests := sum(pick(samples, func(s jobSample) float64 { return float64(s.requests) }))
	dials := sum(pick(samples, func(s jobSample) float64 { return float64(s.dials) }))
	reuse := 1 - ratio(dials, requests)
	res.check("pool_reuse", reuse >= minPoolReuse, "%.0f dials over %.0f requests after warm-up (reuse %.4f, need >= %.2f)", dials, requests, reuse, minPoolReuse)
	if lr.o.scale() < 1 {
		// The two checks below compare against the input's size: at a
		// test's 1/50 scale the word count shuffle is bounded by the
		// vocabulary, not the lines, and a WAN job is latency, not bytes.
		return
	}
	switch lr.w.name {
	case WordCountPush:
		// sort-push ships its whole input twice; combine must leave this
		// workload under 5% of that for the same input bytes.
		wire := Median(pick(samples, func(s jobSample) float64 { return float64(s.wire) }))
		limit := 0.05 * 2 * lr.in.inputBytes
		res.check("data_plane_bypassed", wire < limit, "%.0f wire bytes per job, under 5%% of a full double crossing of the input (%.0f)", wire, limit)
	case SortPushWAN:
		p50 := Median(jobSecs(samples))
		predicted := Median(pick(samples, func(s jobSample) float64 { return s.predictedSec }))
		res.check("bounded_by_wire", predicted > 0 && p50 >= predicted, "job_s_p50 %.4f s against the planner's predicted transfer %.4f s", p50, predicted)
	}
}

// endToEnd fills the bounded metrics from the timed jobs.
func endToEnd(res *Result, setups *setupPhase, samples []jobSample, recordsPerJob float64) {
	res.TimedJobs = len(samples)
	res.RecordsPerJob = recordsPerJob
	res.set("setup_s", setups.corrected())
	res.derive("setup_wall_s", Median(setups.secs), "s")
	if len(samples) == 0 {
		return
	}
	secs := jobSecs(samples)
	records := recordsPerJob * float64(len(samples))
	wire := sum(pick(samples, func(s jobSample) float64 { return float64(s.wire) }))
	res.set("job_s_p50", Median(pick(samples, func(s jobSample) float64 { return s.sec * s.factor })))
	res.derive("job_wall_s_p50", Median(secs), "s")
	res.derive("speed_factor_p50", Median(pick(samples, func(s jobSample) float64 { return s.factor })), "ratio")
	res.set("wire_bytes_per_record", ratio(wire, records))
	res.set("allocs_per_record", ratio(sum(pick(samples, func(s jobSample) float64 { return float64(s.mallocs) })), records))
	res.set("alloc_bytes_per_record", ratio(sum(pick(samples, func(s jobSample) float64 { return float64(s.allocBytes) })), records))
	// Throughput is records over the jobs' summed wall clock, the inverse
	// of the mean job time; wire MB/s is throughput x wire bytes per
	// record. Neither is bounded: the first repeats job_s_p50 with a
	// noisier statistic, and a smaller encoding lowers the second while
	// improving everything a user sees.
	res.derive("records_per_s", ratio(records, sum(secs)), "1/s")
	res.derive("wire_mb_per_s", ratio(wire/1e6, sum(secs)), "MB/s")
	res.derive("job_wall_s_p90", Percentile(secs, 90), "s")
	res.derive("job_wall_s_max", Percentile(secs, 100), "s")
	res.derive("measured_s", sum(secs), "s")
	res.derive("peak_rss_mb", peakRSSMB(), "MB")
}

// runLive runs one live workload.
func runLive(w liveWorkload, o Options) (*Result, []Span, error) {
	res := newResult(w.name, o)
	var rec *Recorder
	if o.Trace {
		rec = NewRecorder(fmt.Sprintf("%s-seed%d", w.name, o.Seed))
	}
	root := rec.Begin(0, "run")
	lr := &liveRun{w: w, o: o, rec: rec, res: res}
	defer func() { lr.close() }()

	if !o.Trace && !w.linkBound {
		lr.ref = newRefTimer(runtime.GOMAXPROCS(0))
	}
	setups := &setupPhase{}
	for setups.more(o) {
		lr.close()
		if err := setups.time(lr.ref, func() error { return lr.setup(root, nil) }); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
	}

	window, minJobs := o.Seconds, minTimedJobs
	if o.Trace {
		window, minJobs = o.Seconds*tracedWindowShare, minTracedJobs
	}
	gc := openMemWindow()
	samples := lr.loop(root, warmupJobs, window, minJobs)
	lr.checkLive(samples)
	if o.Trace {
		gc.close(res)
		if err := lr.perLayer(root, samples); err != nil {
			return nil, nil, err
		}
		res.TimedJobs, res.RecordsPerJob = len(samples), float64(lr.in.records)
	} else {
		endToEnd(res, setups, samples, float64(lr.in.records))
	}
	lr.close()
	rec.End(root)
	res.finish()
	return res, rec.Finish(), nil
}
