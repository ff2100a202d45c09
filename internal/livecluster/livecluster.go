// Package livecluster executes wanshuffle jobs on a real miniature
// cluster: worker processes are goroutines, but every byte of shuffle data
// that changes worker moves over genuine TCP connections on the loopback
// interface, and a byte that stays on its worker stays in that worker's block
// store — no worker has a connection to itself. It is the
// functional twin of the simulator — same planner (internal/plan), same
// record semantics, validated against rdd.EvalLocal — demonstrating that
// the Push/Aggregate mechanism is an executable system design, not only a
// model.
//
// Jobs are planned by plan.BuildJob into shuffle-separated stages and
// driven stage-by-stage by plan.Driver; the cluster implements the
// plan.Backend interface. Any multi-stage DAG the simulator accepts runs
// here too — chained shuffles, iterative rounds, cogroups — as long as the
// lineage carries no explicit transferTo (aggregation is a cluster mode,
// not a graph edit). Two shuffle modes mirror the paper:
//
//   - ModeFetch: mappers store their output locally; reducers pull every
//     shard another worker holds over TCP after the map barrier (stock
//     Spark).
//   - ModePush: each mapper pushes its prepared output to a receiver on an
//     aggregator worker as soon as it finishes (transferTo); a mapper that
//     runs on the aggregator installs its output there directly. The
//     aggregator is chosen per shuffle by plan.ChooseAggregator from
//     measured map-output sizes; reducers are placed on the aggregator
//     and read its block store without a request — the locality the
//     paper aggregates for — so the bytes that cross sockets are Eq. 2's
//     S − s₁.
//
// Closures execute in-process (tasks share the lineage graph), while data
// crosses sockets in the binary record codec of internal/rdd
// (rdd.AppendPairs); a record value outside that codec's closed set fails
// its task with an *rdd.UnsupportedValueError naming the type.
// Workers keep their TCP connections to peers open across requests and
// jobs (Stats.Dials counts the fresh ones).
package livecluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// Mode selects the shuffle mechanism.
type Mode int

// Modes.
const (
	// ModeFetch is the stock fetch-based shuffle.
	ModeFetch Mode = iota + 1
	// ModePush is the paper's Push/Aggregate shuffle.
	ModePush
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFetch:
		return "fetch"
	case ModePush:
		return "push"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a live cluster.
type Config struct {
	// Workers is the worker count. Defaults to 4.
	Workers int
	// Mode defaults to ModeFetch.
	Mode Mode
	// AggregatorPolicy selects the rule that chooses each shuffle's
	// aggregator in ModePush from the stage's measured per-worker input
	// sizes: plan.AggregatorBest (default, largest input share) or
	// plan.AggregatorBandwidth (smallest estimated transfer time over the
	// cluster's measured-then-configured link matrix). plan.AggregatorWorst
	// is accepted for ablations; plan.AggregatorRandom is rejected (the
	// live path carries no seeded RNG).
	AggregatorPolicy plan.AggregatorPolicy
	// TasksPerWorker bounds task concurrency per worker. Defaults to 2.
	TasksPerWorker int
	// Trace, when non-nil, records per-task spans (wall-clock seconds
	// since the job started) and numbers them, driver and worker side.
	Trace *trace.Recorder
	// HeartbeatInterval is the period of worker→driver telemetry
	// heartbeats: each worker buffers its data-plane accounting (bytes by
	// (src,dst,class), request and dial counts, receive and serve spans)
	// and the driver merges the delta on this ticker, so mid-run
	// telemetry snapshots converge continuously. Zero means the 50ms
	// default; negative disables heartbeats — no ticker — and the same
	// buffers are merged once, by the flush that ends every Run: Stats are
	// exact when Run returns and empty before. Liveness does not depend on
	// it: a worker is down when it is closed.
	HeartbeatInterval time.Duration
	// ChunkRecords bounds how many records one data-plane chunk frame
	// carries; pushes and fetches stream their partitions as sequences of
	// such chunks. Defaults to 256.
	ChunkRecords int
	// PushFanout selects nothing — a push is one chunk stream — and New rejects
	// values above 1; it stays until perf/ stops setting it (ROADMAP 1(b)).
	PushFanout int
	// Compression selects the per-chunk codec: "" or "none" (default,
	// off), "gzip", or "flate". Chunks that would not shrink ship raw, so
	// wire bytes never exceed raw bytes.
	Compression string
	// DialTimeout bounds establishing a data-plane connection. Zero means
	// the 5s default; negative disables the bound.
	DialTimeout time.Duration
	// IOTimeout is the deadline one whole request exchange (its chunk
	// stream included) must complete within; a hung peer surfaces as a
	// retryable task error instead of wedging the run. Zero means the 30s
	// default; negative disables the bound.
	IOTimeout time.Duration
	// MemoryBudget bounds each worker's resident shuffle-block bytes.
	// Zero (the default) keeps every output in memory; a positive budget
	// makes each worker's block store spill its coldest outputs to temp
	// files under SpillDir and read them from there a shard at a time, so an
	// aggregator concentrating a whole job's shuffle input is bounded by
	// disk rather than heap. Negative is rejected by New.
	MemoryBudget int64
	// SpillDir is where spill files live (each worker uses its own
	// subdirectory, removed on Close). Empty means the OS temp dir. Only
	// meaningful with a positive MemoryBudget.
	SpillDir string
	// WANTopology, when non-nil, shapes the loopback data plane to the
	// given WAN topology: workers map round-robin onto its worker hosts,
	// and the bytes moving from one worker to another in a different DC —
	// over however many connections and tasks — are paced together to the
	// pair's configured inter-DC bandwidth, so link asymmetry becomes
	// measurable on a laptop. The topology also supplies the configured
	// rates the run report's network section computes drift against. Nil
	// (the default) leaves the loopback unshaped.
	WANTopology *topology.Topology
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Mode == 0 {
		c.Mode = ModeFetch
	}
	if c.TasksPerWorker <= 0 {
		c.TasksPerWorker = 2
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	} else if c.HeartbeatInterval < 0 {
		c.HeartbeatInterval = 0 // disabled
	}
	if c.ChunkRecords <= 0 {
		c.ChunkRecords = 256
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	} else if c.DialTimeout < 0 {
		c.DialTimeout = 0 // disabled
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	} else if c.IOTimeout < 0 {
		c.IOTimeout = 0 // disabled
	}
	return c
}

// Cluster is a running set of loopback workers. Close it when done. Run
// executes one job at a time; the workers, their listeners, and their
// pooled peer connections persist across jobs.
type Cluster struct {
	cfg     Config
	workers []*worker
	// specs is the control-plane shuffle metadata of the current job
	// (shuffleID → *rdd.ShuffleSpec), the registry workers bucket by.
	specs sync.Map
	// curRun is the job currently executing, so server-side handlers
	// (push receives, fetch serves) can stamp their spans on its clock.
	curRun atomic.Pointer[liveRun]
	// mergeMu is held while a heartbeat merges into curRun's stats and
	// while RunContext detaches the run, so no beat — however late its
	// ticker fires — writes to a Stats the caller of Run already holds.
	mergeMu sync.Mutex
	// lastStats keeps the most recently completed job's stats reachable
	// for telemetry endpoints after Run returns.
	lastStats atomic.Pointer[Stats]
	// links estimates per-site-pair throughput from the transfer samples
	// the data plane already produces. It persists across jobs (link
	// capacity outlives any one run).
	links *netobs.Estimator
}

// Stats reports the data-plane activity of one job.
type Stats struct {
	// BytesOverTCP is the total payload moved across sockets (wire
	// bytes, after any chunk compression).
	BytesOverTCP int64
	// BytesRaw is the uncompressed-equivalent payload: BytesOverTCP plus
	// whatever per-chunk compression saved. Equal to BytesOverTCP when
	// compression is off; never smaller.
	BytesRaw int64
	// PushConnections and FetchConnections count the exchanges that crossed
	// a socket, by purpose: a map output installed on the worker that made
	// it, or read by a reducer on the worker that holds it, is neither.
	// Requests reuse pooled connections; Dials counts how many fresh TCP
	// connections the links opened (a link dials its whole width,
	// TasksPerWorker, the first time it is used). SampleRequests is always
	// 0: range samples ride with map outputs to the planner, nothing asks
	// for them over the wire (the field stays for perf/, which reads it).
	PushConnections  int64
	FetchConnections int64
	SampleRequests   int64
	Dials            int64
	// ShardsByWorker counts map-output partitions stored per worker after
	// the job — under ModePush everything lands on the aggregators.
	ShardsByWorker []int
	// StageSpans are the per-stage execution windows, wall-clock seconds
	// since the job started.
	StageSpans []plan.StageSpan
	// Mode is the shuffle mode the job ran under.
	Mode Mode
	// CompletionSec is the job's wall-clock duration.
	CompletionSec float64
	// Retries counts task attempts beyond the first.
	Retries int
	// TrafficMatrix[i][j] is the TCP payload moved by requests from
	// worker i to worker j; its diagonal is zero, no worker has a link to
	// itself. Summed over all entries it equals BytesOverTCP — the live
	// analogue of the simulator's per-region matrix.
	TrafficMatrix [][]int64
	// BytesByClass splits BytesOverTCP by request purpose: "push",
	// "shuffle" (fetch).
	BytesByClass map[string]int64
	// Events collects the driver's task lifecycle and stage events and its
	// placement decisions; its registry holds the data plane's chunk,
	// duplicate and bucketing counters.
	Events *obs.Collector

	// storage snapshots the cluster's block-store accounting (the stores
	// lock internally, so reading it mid-run is safe).
	storage func() blockstore.Stats

	// topo names hosts for critical-path attribution (the cluster's
	// single-DC topology).
	topo *topology.Topology

	// links receives per-exchange transfer samples (the cluster's
	// estimator); configured lists the WANTopology's promised rates the
	// report computes drift against.
	links      *netobs.Estimator
	configured []netobs.ConfiguredLink

	// placementPolicy labels the report's placement section.
	placementPolicy string

	// mu guards BytesOverTCP, BytesRaw, TrafficMatrix, BytesByClass,
	// StageSpans, CompletionSec and Retries against concurrent scrapes; the
	// request counters (Push/Fetch/Dials) are atomics.
	mu sync.Mutex
}

// Storage returns the block-store accounting summed across workers.
func (s *Stats) Storage() blockstore.Stats { return s.storage() }

// flow merges one buffered flow: its wire bytes go into the byte total, the
// (src,dst) traffic matrix cell and the class split — all under one lock,
// so the matrix total equals BytesOverTCP at every instant a scraper could
// observe. raw (wire plus compression savings) feeds BytesRaw.
func (s *Stats) flow(src, dst int, class string, wire, raw int64) {
	s.mu.Lock()
	s.BytesOverTCP += wire
	s.BytesRaw += raw
	if src >= 0 && src < len(s.TrafficMatrix) && dst >= 0 && dst < len(s.TrafficMatrix) {
		s.TrafficMatrix[src][dst] += wire
	}
	s.BytesByClass[class] += wire
	s.mu.Unlock()
}

// merge folds one drained telemetry buffer into the stats, routing its
// receive and serve spans to the job's trace recorder. Each transfer sample
// — one completed exchange's wire bytes over its wall-clock duration — feeds
// the cluster's link estimator for its (src,dst) pair; every exchange ran on
// a link, so there is no sample from a worker to itself.
func (s *Stats) merge(hb heartbeat, tr *trace.Recorder) {
	for _, f := range hb.Flows {
		s.flow(f.Src, f.Dst, f.Class, f.Bytes, f.Raw)
	}
	for _, x := range hb.Xfers {
		s.links.ObserveTransfer(siteLabel(x.Src), siteLabel(x.Dst), float64(x.Bytes), x.Sec)
	}
	atomic.AddInt64(&s.PushConnections, hb.Pushes)
	atomic.AddInt64(&s.FetchConnections, hb.Fetches)
	atomic.AddInt64(&s.Dials, hb.Dials)
	for _, sp := range hb.Spans {
		tr.Add(sp)
	}
}

// Placements returns the automatic aggregator decisions recorded so far.
func (s *Stats) Placements() []obs.PlacementDecision { return s.Events.Placements() }

// addStageSpan records one completed stage window.
func (s *Stats) addStageSpan(span plan.StageSpan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.StageSpans = append(s.StageSpans, span)
}

// setCompletion records the job's final duration and retry count.
func (s *Stats) setCompletion(sec float64, retries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.CompletionSec = sec
	s.Retries = retries
}

// MatrixLabels names the traffic matrix's rows and columns, one per
// worker.
func (s *Stats) MatrixLabels() []string {
	out := make([]string, len(s.ShardsByWorker))
	for i := range out {
		out[i] = siteLabel(i)
	}
	return out
}

// RunReport assembles the canonical JSON run report for this job. tr is
// the trace recorder the job ran with (Config.Trace); a nil recorder
// yields a report without task summaries. It is safe to call while the
// job is still running — the telemetry plane's /report endpoint serves
// exactly this snapshot mid-run, with the same code path as the final
// report, so a mid-run traffic matrix always sums to the bytes moved so
// far and completion-only fields stay zero until the run finishes.
func (s *Stats) RunReport(workload string, tr *trace.Recorder) *obs.Report {
	labels := s.MatrixLabels()
	s.mu.Lock()
	matrix := make([][]float64, len(s.TrafficMatrix))
	for i, row := range s.TrafficMatrix {
		matrix[i] = make([]float64, len(row))
		for j, v := range row {
			matrix[i][j] = float64(v)
		}
	}
	byClass := make(map[string]float64, len(s.BytesByClass))
	for class, v := range s.BytesByClass {
		byClass[class] = float64(v)
	}
	stages := append([]plan.StageSpan(nil), s.StageSpans...)
	completion := s.CompletionSec
	retries := s.Retries
	bytesTotal := float64(s.BytesOverTCP)
	bytesRaw := float64(s.BytesRaw)
	s.mu.Unlock()
	st := s.storage()
	storage := &obs.StorageStats{
		ResidentBytes:     float64(st.ResidentBytes),
		ResidentOutputs:   st.ResidentOutputs,
		SpilledBytes:      float64(st.SpilledBytes),
		SpilledOutputs:    st.SpilledOutputs,
		SpilledBytesTotal: float64(st.SpilledBytesTotal),
		SpillEvents:       st.SpillEvents,
		ReloadBytesTotal:  float64(st.ReloadBytesTotal),
	}
	return &obs.Report{
		Schema:         obs.SchemaVersion,
		Backend:        "live",
		Workload:       workload,
		Scheme:         s.Mode.String(),
		Sites:          labels,
		CompletionSec:  completion,
		Stages:         stages,
		TrafficByClass: byClass,
		MatrixLabels:   labels,
		TrafficMatrix:  matrix,
		Tasks:          obs.TaskSummaries(tr.Spans(), obs.StageNames(stages)),
		TaskAttempts:   s.Events.Counts().Started,
		Retries:        retries,
		Dials:          atomic.LoadInt64(&s.Dials),
		BytesTotal:     bytesTotal,
		BytesRaw:       bytesRaw,
		CriticalPath:   trace.AnalyzeCriticalPath(tr.Spans(), s.topo),
		Storage:        storage,
		Network:        netobs.ReportSection(s.links, s.configured),
		Placement:      obs.PlacementSection(s.placementPolicy, s.Placements()),
	}
}

// New starts the workers, each listening on an ephemeral loopback port,
// wires their links, and (with heartbeats enabled) starts each worker's
// heartbeat ticker. The workers' listeners are the only sockets it opens.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	switch cfg.AggregatorPolicy {
	case plan.AggregatorBest, plan.AggregatorWorst, plan.AggregatorBandwidth:
	case plan.AggregatorRandom:
		return nil, fmt.Errorf("livecluster: aggregator policy %q is not supported on the live path (no seeded RNG)", cfg.AggregatorPolicy)
	default:
		return nil, fmt.Errorf("livecluster: unknown aggregator policy %d", cfg.AggregatorPolicy)
	}
	codec, ok := validCodec(cfg.Compression)
	if !ok {
		return nil, fmt.Errorf("livecluster: unknown compression codec %q (want none, gzip, or flate)", cfg.Compression)
	}
	if cfg.PushFanout > 1 {
		return nil, fmt.Errorf("livecluster: PushFanout %d: a push is one stream, there is no fan-out to set", cfg.PushFanout)
	}
	if cfg.MemoryBudget < 0 {
		return nil, fmt.Errorf("livecluster: memory budget must be positive (or zero for unlimited), got %d", cfg.MemoryBudget)
	}
	if cfg.WANTopology != nil && len(cfg.WANTopology.Workers()) == 0 {
		return nil, fmt.Errorf("livecluster: WAN topology has no worker hosts")
	}
	cfg.Compression = codec
	c := &Cluster{cfg: cfg, links: netobs.NewEstimator(netobs.Config{})}
	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(i, c)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	c.wireLinks()
	if c.hbEnabled() {
		for _, w := range c.workers {
			w.startHeartbeats(cfg.HeartbeatInterval)
		}
	}
	return c, nil
}

// wireLinks gives every worker its link to every other worker, now that all
// of them listen. links[i][i] stays nil: a worker does not talk to itself over
// a socket, so the traffic matrix has no diagonal to account. Under
// Config.WANTopology it also makes the one bucket of each cross-DC directed
// pair and hands it to the two links whose connections move bytes in that
// direction: src's, which writes them, and dst's, which reads them back on
// its fetches.
func (c *Cluster) wireLinks() {
	pace := make([][]*bucket, len(c.workers))
	for i := range pace {
		pace[i] = make([]*bucket, len(c.workers))
		for j := range pace[i] {
			if bps := c.linkRateBps(i, j); bps > 0 {
				pace[i][j] = &bucket{rateBps: bps}
			}
		}
	}
	for i, w := range c.workers {
		w.links = make([]*link, len(c.workers))
		for j, peer := range c.workers {
			if j == i {
				continue
			}
			w.links[j] = &link{
				src: i, dst: j, addr: peer.srv.addr(), tel: w.tel,
				width:       c.cfg.TasksPerWorker,
				dialTimeout: c.cfg.DialTimeout, ioTimeout: c.cfg.IOTimeout,
				out: pace[i][j], in: pace[j][i],
			}
		}
	}
}

// newStore builds one worker's shuffle block store: fully resident by
// default, budget-bounded with disk spill when Config.MemoryBudget is
// set. The report's storage section reads its accountant.
func (c *Cluster) newStore() (blockstore.Store, error) {
	if c.cfg.MemoryBudget > 0 {
		return blockstore.NewSpillStore(blockstore.SpillConfig{
			MemoryBudget: c.cfg.MemoryBudget,
			Dir:          c.cfg.SpillDir,
		}, nil)
	}
	return blockstore.NewMemStore(nil), nil
}

// StorageStats sums the workers' block-store accounting: resident and
// spilled occupancy plus cumulative spill/reload activity. Safe to call
// mid-run.
func (c *Cluster) StorageStats() blockstore.Stats {
	var total blockstore.Stats
	for _, w := range c.workers {
		total.Add(w.store.Accountant().Stats())
	}
	return total
}

// workerHost maps a worker index onto the WAN topology's worker hosts,
// round-robin when the cluster has more workers than the topology.
// Callers must have checked Config.WANTopology is set.
func (c *Cluster) workerHost(i int) topology.HostID {
	hosts := c.cfg.WANTopology.Workers()
	return hosts[i%len(hosts)]
}

// linkRateBps returns the configured inter-DC bandwidth between two
// workers under Config.WANTopology, or 0 (unshaped) when no topology is
// set or both map into the same DC.
func (c *Cluster) linkRateBps(src, dst int) float64 {
	topo := c.cfg.WANTopology
	if topo == nil {
		return 0
	}
	a, b := topo.DCOf(c.workerHost(src)), topo.DCOf(c.workerHost(dst))
	if a == b {
		return 0
	}
	return topo.InterBps(a, b)
}

// configuredLinks lists the WANTopology's promised rate for every
// cross-DC worker pair, keyed by the same site labels the estimator
// observes, so the report's drift ratio lines up pair by pair. Nil
// without a topology.
func (c *Cluster) configuredLinks() []netobs.ConfiguredLink {
	if c.cfg.WANTopology == nil {
		return nil
	}
	var out []netobs.ConfiguredLink
	for i := range c.workers {
		for j := range c.workers {
			if bps := c.linkRateBps(i, j); bps > 0 {
				out = append(out, netobs.ConfiguredLink{Src: siteLabel(i), Dst: siteLabel(j), Bps: bps})
			}
		}
	}
	return out
}

// NetworkStats assembles the current link estimate matrix — measured
// throughput per worker pair merged with the configured topology's
// rates, across every job the cluster has run. Safe to call mid-run.
func (c *Cluster) NetworkStats() *obs.NetworkStats {
	return netobs.ReportSection(c.links, c.configuredLinks())
}

// LinkCosts returns the planner's link-cost view over worker indices: the
// persistent estimator's measured EWMA when the pair has transfer samples
// (link capacity outlives any one job, so estimates learned on earlier
// runs inform later placements), else the shaped topology's configured
// rate; same-DC pairs fall to the planner's uniform fallback.
func (c *Cluster) LinkCosts() plan.LinkCostProvider {
	return plan.MeasuredLinkCosts(c.links, len(c.workers), siteLabel, c.linkRateBps)
}

// siteLabel names worker i for span, link and matrix attribution.
func siteLabel(i int) string { return fmt.Sprintf("w%d", i) }

// CurrentStats returns the stats of the job currently running, falling
// back to the last completed job's (nil before any job). Telemetry
// endpoints read mid-run state through it.
func (c *Cluster) CurrentStats() *Stats {
	if run := c.curRun.Load(); run != nil {
		return run.stats
	}
	return c.lastStats.Load()
}

// Topology describes the cluster as a single-datacenter topology (one host
// per worker), so live trace spans render through the same Gantt and
// Chrome-trace code paths as simulated ones.
func (c *Cluster) Topology() *topology.Topology {
	b := topology.NewBuilder()
	b.AddDC("local", len(c.workers), 1, 1e9)
	topo, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("livecluster: building local topology: %v", err))
	}
	return topo
}

// Close shuts every worker down: its listener, its pooled connections, its
// heartbeat ticker and its block store.
func (c *Cluster) Close() {
	for _, w := range c.workers {
		w.close()
	}
}

// Run executes the job materializing target and returns its output records
// (concatenated in result-partition order) plus data-plane statistics. The
// lineage may contain any number of shuffles; it is planned and driven
// exactly like a simulator job.
func (c *Cluster) Run(target *rdd.RDD) ([]rdd.Pair, *Stats, error) {
	return c.RunContext(context.Background(), target)
}

// RunContext is Run under cooperative cancellation: when ctx fires, the
// driver stops launching tasks, in-flight task RPCs finish, and the call
// returns an error wrapping ctx.Err(). Workers, the shuffle planes, and
// the netobs estimator survive a canceled job — resetJobState clears the
// per-job residue on the next Run, so the same Cluster keeps serving.
func (c *Cluster) RunContext(ctx context.Context, target *rdd.RDD) ([]rdd.Pair, *Stats, error) {
	job, err := plan.BuildJob(target)
	if err != nil {
		return nil, nil, fmt.Errorf("livecluster: %w", err)
	}
	c.resetJobState()
	for _, spec := range job.Plan.Shuffles() {
		c.specs.Store(spec.ID, spec)
	}
	stats := c.newStats()
	run := newLiveRun(c, stats, job.Plan)
	c.curRun.Store(run)
	drv := plan.NewDriver(job, run, plan.DriverConfig{
		Aggregate: c.cfg.Mode == ModePush,
		Policy:    c.cfg.AggregatorPolicy,
		LinkCosts: c.LinkCosts(),
		SiteSlots: c.cfg.TasksPerWorker,
	})
	parts, err := drv.RunContext(ctx)
	// Drain every worker's telemetry buffer before reading the stats, so
	// totals are exact regardless of heartbeat timing.
	c.flushTelemetry()
	stats.setCompletion(time.Since(run.start).Seconds(), stats.Events.Counts().Retried)
	c.lastStats.Store(stats)
	// Detach the run before stats is handed to the caller: a ticker beat
	// arriving from here on finds no run and merges nowhere.
	c.mergeMu.Lock()
	c.curRun.Store(nil)
	c.mergeMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	for i, w := range c.workers {
		stats.ShardsByWorker[i] = w.storedOutputs()
	}
	return slices.Concat(parts...), stats, nil
}

// newStats returns the empty stats of one job on this cluster.
func (c *Cluster) newStats() *Stats {
	matrix := make([][]int64, len(c.workers))
	for i := range matrix {
		matrix[i] = make([]int64, len(c.workers))
	}
	return &Stats{
		ShardsByWorker:  make([]int, len(c.workers)),
		Mode:            c.cfg.Mode,
		TrafficMatrix:   matrix,
		BytesByClass:    map[string]int64{},
		Events:          obs.NewCollector(),
		storage:         c.StorageStats,
		topo:            c.Topology(),
		links:           c.links,
		configured:      c.configuredLinks(),
		placementPolicy: c.cfg.AggregatorPolicy.String(),
	}
}

// resetJobState clears the previous job's shuffle metadata and stored map
// outputs (shuffle IDs are graph-scoped, so leftovers could collide).
func (c *Cluster) resetJobState() {
	c.specs.Range(func(k, _ any) bool {
		c.specs.Delete(k)
		return true
	})
	for _, w := range c.workers {
		w.resetRun()
	}
}
