// Package perf is wanperf, the repository's wall-clock benchmark: seven
// named workloads driven as a closed loop with one client against the live
// loopback cluster and the simulator, end-to-end metrics with fixed
// regression bounds, and per-layer metrics taken from outside each layer
// by timing its public functions and reading the counts its public types
// already return. Nothing here reports virtual time as performance; that
// is internal/bench's job (see README.md).
package perf

// Direction says which way a metric improves.
type Direction string

// Directions.
const (
	Lower  Direction = "lower"
	Higher Direction = "higher"
)

// Metric names one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound.
type Metric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better Direction `json:"better"`
	Bound  float64   `json:"bound,omitempty"`
}

// WorkloadInfo names one workload and records why it exists.
type WorkloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names. Later issues refer to these.
const (
	SortPush      = "sort-push"
	SortFetch     = "sort-fetch"
	WordCountPush = "wordcount-push"
	PageRankPush  = "pagerank-push"
	SortPushSpill = "sort-push-spill"
	SortPushWAN   = "sort-push-wan"
	SimFig7       = "sim-fig7"
)

// Workloads lists the seven workloads in running order. BENCHMARK.json
// mirrors this table (TestBenchmarkJSONMirrorsSpec).
var Workloads = []WorkloadInfo{
	{SortPush, "whole dataset crosses the data plane twice (push, then fetch): record codec, chunk streams, sockets and block-store put/shards do most of the work"},
	{SortFetch, "the paper's baseline and the same layers used the other way round: a push-path gain that costs the fetch path shows here"},
	{WordCountPush, "map-side combine shrinks the shuffle to ~1% of sort's: rdd evaluation dominates, the data plane is bypassed (prediction for data-plane changes: no move)"},
	{PageRankPush, "iterative, seven shuffles of tiny messages: per-request, per-chunk-stream and per-task driver cost dominate, not bytes"},
	{SortPushSpill, "memory budget of one map output: every put evicts and every shard read reloads, so blockstore spill/reload (gob + file I/O) does most of the work"},
	{SortPushWAN, "six regions, one worker each, paced inter-DC links: job time is bounded below by wire bytes, so CPU-side changes must not move it"},
	{SimFig7, "simulator host speed on a Fig. 7 slice (5 workloads x 3 schemes x 2 seeds per job): exec, simnet, sched, sim; the live data plane is bypassed"},
}

// EndToEnd lists the bounded metrics every untraced run reports, on every
// workload. A "record" is the workload's unit of work: one input record on
// the live workloads, one task attempt on sim-fig7.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: Lower, Bound: 0.25},
	{Name: "job_s_p50", Unit: "s", Better: Lower, Bound: 0.25},
	{Name: "wire_bytes_per_record", Unit: "B", Better: Lower, Bound: 0.04},
	{Name: "allocs_per_record", Unit: "count", Better: Lower, Bound: 0.12},
	{Name: "alloc_bytes_per_record", Unit: "B", Better: Lower, Bound: 0.15},
}

// FindMetric looks a metric up by name in EndToEnd then PerLayer.
func FindMetric(name string) (Metric, bool) {
	for _, m := range EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// BaselineNotes is what a reader of a committed trajectory file must know
// beyond the numbers: which of the issue's end-to-end candidates were
// demoted to per-layer metrics and why, and defects the benchmark found
// but may not fix.
var BaselineNotes = []string{
	"Every end-to-end metric is reported by every workload (the benchmark driver requires one uniform set), so a 'record' is an input record on the live workloads and a task attempt on sim-fig7, and sim-fig7's wire_bytes_per_record is the modeled cross-DC bytes per task attempt (a reproduced result: identical for one seed).",
	"sim_fig7_s is job_s_p50 on sim-fig7: there a job is one pass over 5 workloads x 3 schemes x 2 seeds at scale 1, a fifth of Fig. 7's -runs 10, so regenerating the figure costs about 5 x job_s_p50.",
	"Demoted to per-layer (reported by traced runs, no bound): records_per_s (perf.records_per_s; the inverse of the mean job time, the same information as job_s_p50 from a noisier statistic), job_s_p90 (perf.job_s_p90; a 10 s window leaves fewer than 10 samples beyond it on five of seven workloads), peak_rss_mb (perf.peak_rss_mb; depends on where the collector happens to be when a job ends).",
	"failed_jobs_share is not a bounded metric because a metric must never be 0; it is the run's failed/attempted pair and a derived field, and any failed job or failed precondition makes the run incorrect.",
	"setup_s and job_s_p50 are speed-corrected seconds: wall clock x 1.5 ms / (a fixed reference kernel's time, taken right before and after the interval), uncorrected on the link-bound sort-push-wan. On the 2-vCPU VM this was sized on, a fixed single-threaded spin loop itself swings by +-30% over tens of seconds with no steal time reported; the run-to-run spread of the raw median job time was 4-7% in the quietest hour and 20-35% in the noisiest, of the corrected one 2-10% in both. The raw wall clock is the derived job_wall_s_p50 / setup_wall_s, and every per-layer time is raw.",
	"Bounds are wider than the issue proposed (job_s_p50 10%, allocs 3%, wire 2%): the corrected time still spreads 2-10%, and the count metrics vary with the seed, not the run (alloc bytes by up to 4% on the sort workloads, allocations by up to 3.4% and modeled cross-DC bytes by up to 1.1% per task attempt on sim-fig7), while the driver draws a new seed per run and wants each spread under a third of its bound.",
	"Known defect found by the determinism check and left alone (the benchmark changes no program code): the simulator's WordCount/AggShuffle cell at seed 5 lands on a second virtual JCT (17.68 s instead of 15.32 s) in about one run in six, with task attempts, flows and cross-DC bytes unchanged. The JCT comparison is therefore advisory; the exact counts are enforced.",
	"setup_s covers input generation, the reference, cluster start and the first job on the new cluster (what a cluster pays once: dials, pools, lazy registration); without that job it is 5-25 ms and whether one collection falls inside decides the number. An untraced run sets up at least five times and reports the median.",
	"Defect found under -race and left alone: a heartbeat the driver took off the wire just before a job ended is merged into the job's Stats after Cluster.Run has returned them (its counts are zero, the end-of-run flush having drained the worker, so totals stay exact); the benchmark reads the four request counters atomically for that reason.",
	"sort-push-wan runs with PushFanout 1: pacing is per connection, so the default two streams per push would double every link's rate and job_s_p50 would undercut the planner's predicted transfer time. sort-push-spill runs with TasksPerWorker 1 so that the number of evictions and reloads per job does not depend on how two reducers interleave.",
}
