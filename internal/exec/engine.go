// Package exec executes RDD jobs on the simulated geo-distributed cluster.
//
// It ties the pieces together: the dag planner cuts the lineage into
// stages, the sched scheduler places tasks on host slots, the shuffle
// registry tracks map output, and simnet carries every byte that moves
// between hosts. Computation over records is performed for real (the
// engine produces actual results, validated against rdd.EvalLocal); only
// durations are modeled, from each partition's modeled byte size.
//
// Task lifecycle per stage phase: acquire inputs (disk reads locally,
// network flows remotely — the all-to-all burst of a fetch-based shuffle
// read happens here), compute, then either register shuffle output, push to
// the next phase's receiver task (transferTo), or ship results to the
// driver. Fault tolerance is Spark's retry path and nothing more: a failed
// attempt is re-submitted until plan.MaxAttempts, and a reducer that finds
// map output lost with its host recomputes it (FetchFailed). Scripted
// reducer failures (FailureSpec) and host failures (HostFailure) are the
// two fault inputs, reproducing the paper's Fig. 2 recovery behaviour.
package exec

import (
	"context"
	"errors"
	"fmt"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/sched"
	"wanshuffle/internal/shuffle"
	"wanshuffle/internal/sim"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// Traffic tags used for cross-DC byte attribution.
const (
	TagInput      = "input"      // reading job input remotely
	TagCache      = "cache"      // reading a cached partition remotely
	TagShuffle    = "shuffle"    // fetch-based shuffle reads
	TagPush       = "push"       // transferTo pushes
	TagResult     = "result"     // result collection to the driver
	TagCentralize = "centralize" // Centralized-baseline input aggregation
)

// FailureSpec injects a deterministic failure into a reduce task attempt,
// reproducing the paper's Fig. 2 scenario.
type FailureSpec struct {
	// Stage matches the stage's output RDD name.
	Stage string
	// Part is the task (reduce partition) index.
	Part int
	// Attempt is the attempt number to fail (1 = first).
	Attempt int
	// AtFrac is the fraction of the compute span at which the failure
	// strikes, in [0,1].
	AtFrac float64
}

// Config tunes the execution model. Zero values take the defaults noted on
// each field, calibrated so that Table I workloads land in the paper's JCT
// range.
type Config struct {
	// ComputeBps is the modeled processing throughput per core, in bytes
	// of modeled input per second. Default 40 MB/s, calibrated to the
	// paper's m3.large workers (2 vCPUs of 2014-era hardware running
	// HiBench JVM jobs).
	ComputeBps float64
	// ComputeNoise is the relative amplitude of per-task compute time
	// jitter. Default 0.08; set negative to disable.
	ComputeNoise float64
	// ScriptedFailures injects specific reduce-task failures; a task that
	// fails plan.MaxAttempts times fails the job.
	ScriptedFailures []FailureSpec
	// PinReducersDC, when non-nil, forces shuffle-reading tasks into one
	// datacenter. Used by the Fig. 1 / Fig. 2 micro-benchmarks to pin the
	// scenario's placement; never set for real workloads.
	PinReducersDC *topology.DCID
	// NoPipelining delays every transferTo push until the whole phase has
	// finished (a barrier), disabling the paper's early-transfer
	// pipelining. Ablation knob; off by default.
	NoPipelining bool
	// HostFailures kills workers at given virtual times: slots, shuffle
	// files, and caches on them are lost; shuffle reads recover by
	// recomputing the lost map outputs (Spark's FetchFailed path).
	HostFailures []HostFailure
	// AggregatorPolicy overrides how automatic transfers choose their
	// datacenter. Ablation knob; default plan.AggregatorBest.
	AggregatorPolicy plan.AggregatorPolicy

	Net simnet.Config
	// Trace enables span recording (Gantt timelines).
	Trace bool
}

// Model constants no caller varies, calibrated together with the Config
// defaults.
const (
	// diskBps is the local disk throughput, 200 MB/s.
	diskBps float64 = 200e6
	// taskOverhead is the fixed launch cost per task attempt, in seconds.
	taskOverhead float64 = 0.15
	// reducerLocalityFraction is the share of a reducer's input a host
	// must hold to become a preferred location (Spark's
	// REDUCER_PREF_LOCS_FRACTION).
	reducerLocalityFraction float64 = 0.2
)

func (c Config) withDefaults() Config {
	if c.ComputeBps <= 0 {
		c.ComputeBps = 40e6
	}
	if c.ComputeNoise == 0 {
		c.ComputeNoise = 0.08
	} else if c.ComputeNoise < 0 {
		c.ComputeNoise = 0
	}
	return c
}

// Engine executes jobs over one simulated cluster. Caches and shuffle
// output persist across jobs run on the same engine; RunMany executes
// several jobs concurrently on the shared cluster. The engine itself is
// single-threaded (the simulation is deterministic) — drive separate
// Engines from separate goroutines for parallel experiments. Tracer is nil
// unless Config.Trace; it and Events lock, so telemetry may read both
// while the event loop runs.
type Engine struct {
	Clock  *sim.Clock
	Net    *simnet.Network
	Topo   *topology.Topology
	Sched  *sched.Scheduler
	Tracer *trace.Recorder
	// Events collects the task/stage lifecycle stream and placements of
	// every job run on this engine, with counters in its registry.
	Events *obs.Collector

	cfg      Config
	reg      *shuffle.Registry
	noiseRNG sim.RNG
	aggRNG   sim.RNG

	// traceID names the causal trace; Tracer numbers its spans 1, 2, 3, …
	// in event order, so traces stay deterministic per seed.
	traceID trace.TraceID

	// links estimates per-DC-pair throughput from completed cross-DC
	// flows, in modeled time — the simulator's half of the report's
	// network section, the same shape as the live cluster's measured one.
	links *netobs.Estimator

	cache map[int][]*cachedPart // RDD ID → per-partition cached copies

	deadHosts []bool
	// producers maps shuffle ID → the stage that computes its map output,
	// for failure recovery.
	producers  map[int]*stageState
	recovering map[recoveryKey]bool

	activeJobs int
}

type cachedPart struct {
	host    topology.HostID
	records []rdd.Pair
	modeled float64
}

// New builds an engine over a fresh simulated cluster.
func New(topo *topology.Topology, seed int64, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	clock := sim.NewClock()
	e := &Engine{
		Clock:      clock,
		Net:        simnet.New(clock, topo, seed, cfg.Net),
		Topo:       topo,
		Sched:      sched.New(clock, topo, seed),
		Events:     obs.NewCollector(),
		cfg:        cfg,
		reg:        shuffle.NewRegistry(),
		noiseRNG:   sim.Stream(seed, "exec.noise"),
		aggRNG:     sim.Stream(seed, "exec.aggpolicy"),
		cache:      make(map[int][]*cachedPart),
		deadHosts:  make([]bool, topo.NumHosts()),
		producers:  make(map[int]*stageState),
		recovering: make(map[recoveryKey]bool),
		traceID:    trace.TraceID(fmt.Sprintf("sim-%d", seed)),
	}
	e.links = netobs.NewEstimator(netobs.Config{})
	e.scheduleHostFailures()
	// Every completed cross-DC flow is one modeled throughput sample for
	// the link estimator — the simulator's analogue of the live cluster's
	// per-exchange wall-clock measurements.
	e.Net.SetFlowObserver(func(src, dst topology.HostID, _ string, bytes, start, end float64) {
		a, b := e.Topo.DCOf(src), e.Topo.DCOf(dst)
		if a == b {
			return
		}
		e.links.ObserveTransfer(e.Topo.DCs[a].Name, e.Topo.DCs[b].Name, bytes, end-start)
	})
	if cfg.Trace {
		e.Tracer = &trace.Recorder{}
	}
	return e
}

// Action selects what Run does with the final RDD.
type Action int

// Actions.
const (
	// ActionCollect ships every result partition to the driver.
	ActionCollect Action = iota + 1
	// ActionCount ships only per-partition counts.
	ActionCount
	// ActionSave writes result partitions to node-local storage (HDFS
	// output, as the HiBench jobs do) and acknowledges the driver; the
	// records are still returned for validation but incur no result
	// traffic.
	ActionSave
)

// StageSpan reports one stage's execution window (Fig. 9's unit). It is
// the shared plan.StageSpan so simulated and live timelines interoperate.
type StageSpan = plan.StageSpan

// Result reports one job run.
type Result struct {
	// Action is the action that produced this result.
	Action Action
	// Records holds the output records (ActionCollect and ActionSave),
	// concatenated in partition order.
	Records []rdd.Pair
	// Counts holds per-partition record counts (ActionCount).
	Counts []int
	// Start/End/JCT are virtual times in seconds.
	Start, End, JCT float64
	Stages          []StageSpan
	// CrossDCBytes is the cross-datacenter traffic incurred by this job.
	CrossDCBytes float64
	// CrossDCByTag splits it by traffic class (input / shuffle / push /
	// result / centralize / cache).
	CrossDCByTag map[string]float64
	// PairBytes[i][j] is the job's cross-DC traffic from DC i to DC j —
	// the "inter-datacenter transfers visible to the developer" point of
	// Sec. IV-E (the paper surfaces them in the Spark WebUI).
	PairBytes [][]float64
	// TaskAttempts counts every task attempt launched, including failed
	// ones.
	TaskAttempts int
	// Retries counts re-submissions after a failed attempt (scripted
	// failures and lost hosts). Recomputing a lost map output is a fresh
	// attempt 1, not a retry.
	Retries int
}

// RunOptions tune one job run.
type RunOptions struct {
	// Centralize ships all job input to the datacenter holding the most
	// input bytes before any stage starts — the paper's "Centralized"
	// baseline.
	Centralize bool
}

// jobState tracks one running job.
type jobState struct {
	action  Action
	plan    *dag.Plan
	stages  []*stageState
	byStage map[*dag.Stage]*stageState

	resultRecords [][]rdd.Pair
	resultCounts  []int
	resultsIn     int

	startCross float64
	startByTag map[string]float64
	startPair  [][]float64
	start      float64

	attempts int
	retries  int
	done     bool
	end      float64
	err      error

	// pinDC confines every task to one datacenter (Centralized baseline:
	// "after all data is centralized within a cluster, Spark works within
	// a datacenter").
	pinDC *topology.DCID
}

type stageState struct {
	st *dag.Stage
	// name is st.Name(), formatted once: every task event carries it.
	name           string
	job            *jobState
	pendingParents int
	launched       bool
	tasksDone      int
	span           StageSpan
	// aggRank ranks datacenters for automatic transfers (best first,
	// per the configured AggregatorPolicy).
	aggRank     []topology.DCID
	aggResolved bool
	// startPhase skips leading phases whose transfer boundary is already
	// fully cached (Spark's getCacheLocs short-circuit): re-running them
	// would repeat the push the cache exists to avoid (Sec. IV-E).
	startPhase int
	// phaseDone counts completed tasks per phase; heldHandoffs queues
	// pushes when NoPipelining forces a barrier.
	phaseDone    []int
	heldHandoffs [][]func()

	// completed latches the first full completion, so post-failure
	// recomputations don't re-trigger child launches.
	completed bool

	// partDone marks each partition's final phase finished; recovery
	// reopens a partition whose map output was lost.
	partDone []bool
}

// JobSpec describes one job for RunMany.
type JobSpec struct {
	Target *rdd.RDD
	Action Action
	Opts   RunOptions
}

// ErrBusy reports a Run/RunMany call made while the engine is already
// driving jobs. Callers that serialize jobs themselves (a job service)
// treat it as retry-later; anything else on this path is fatal.
var ErrBusy = errors.New("exec: engine busy")

// Run executes an action on the target RDD and returns the job report.
func (e *Engine) Run(target *rdd.RDD, action Action, opts RunOptions) (*Result, error) {
	results, err := e.RunMany([]JobSpec{{Target: target, Action: action, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunMany launches every job at the current instant and runs them
// concurrently on the shared cluster — the multi-tenant setting of the
// paper's Sec. IV-E discussion ("it is common that a Spark cluster is
// shared by multiple jobs"). Jobs contend for the same task slots and
// network links; results are returned in spec order.
func (e *Engine) RunMany(specs []JobSpec) ([]*Result, error) {
	return e.RunManyContext(context.Background(), specs)
}

// RunManyContext is RunMany under cooperative cancellation: the event
// loop checks ctx between simulation steps and aborts with an error
// wrapping ctx.Err() when it fires. A canceled engine is left
// mid-simulation (pending clock events, partial flows) and should be
// discarded — build a fresh Engine for the next job; only the live
// backend promises post-cancel reuse.
func (e *Engine) RunManyContext(ctx context.Context, specs []JobSpec) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) == 0 {
		return nil, nil
	}
	if e.activeJobs != 0 {
		return nil, fmt.Errorf("%w: already running %d job(s)", ErrBusy, e.activeJobs)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: job canceled: %w", err)
	}
	jobs := make([]*jobState, len(specs))
	for i, spec := range specs {
		job, err := e.prepareJob(spec.Target, spec.Action)
		if err != nil {
			return nil, err
		}
		jobs[i] = job
	}
	e.activeJobs = len(jobs)
	for i, spec := range specs {
		e.startJob(jobs[i], spec.Opts)
	}

	allDone := func() bool {
		for _, job := range jobs {
			if !job.done {
				return false
			}
		}
		return true
	}
	// Drive the simulation until every job completes. The step cap is a
	// runaway backstop far above any real workload's event count.
	const maxSteps = 20_000_000
	steps := 0
	for !allDone() && e.Clock.Step() {
		steps++
		// Poll the context every 1024 steps: cheap against the event-loop
		// hot path, still bounds cancellation latency to a sliver of
		// simulated work.
		if steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				e.activeJobs = 0
				return nil, fmt.Errorf("exec: job canceled at t=%.3f: %w", e.Clock.Now(), err)
			}
		}
		if steps >= maxSteps {
			e.activeJobs = 0
			return nil, fmt.Errorf("exec: event-loop runaway at t=%.3f: %s; active flows=%d",
				e.Clock.Now(), e.stallDiagnostic(jobs), e.Net.ActiveFlows())
		}
	}
	if err := ctx.Err(); err != nil {
		e.activeJobs = 0
		return nil, fmt.Errorf("exec: job canceled at t=%.3f: %w", e.Clock.Now(), err)
	}
	e.activeJobs = 0
	if !allDone() {
		return nil, fmt.Errorf("exec: simulation stalled: %s", e.stallDiagnostic(jobs))
	}
	results := make([]*Result, len(jobs))
	for i, job := range jobs {
		if job.err != nil {
			return nil, job.err
		}
		results[i] = e.report(job)
	}
	return results, nil
}

// prepareJob plans a job through the shared planner and registers its
// shuffles.
func (e *Engine) prepareJob(target *rdd.RDD, action Action) (*jobState, error) {
	pj, err := plan.BuildJob(target)
	if err != nil {
		return nil, fmt.Errorf("exec: planning failed: %w", err)
	}
	job := &jobState{
		action:        action,
		plan:          pj.Plan,
		byStage:       make(map[*dag.Stage]*stageState),
		resultRecords: make([][]rdd.Pair, pj.Plan.Final.NumTasks),
		resultCounts:  make([]int, pj.Plan.Final.NumTasks),
		startCross:    e.Net.CrossDCBytes(),
		startByTag:    e.Net.CrossDCBytesByTag(),
		startPair:     e.pairSnapshot(),
		start:         e.Clock.Now(),
	}
	for _, st := range pj.Plan.Stages {
		ss := &stageState{st: st, name: st.Name(), job: job, pendingParents: len(st.Parents)}
		job.stages = append(job.stages, ss)
		job.byStage[st] = ss
		if st.OutSpec != nil {
			e.reg.Register(st.OutSpec, st.NumTasks)
			e.producers[st.OutSpec.ID] = ss
		}
	}
	return job, nil
}

func (e *Engine) startJob(job *jobState, opts RunOptions) {
	begin := func() {
		for _, ss := range job.stages {
			if ss.pendingParents == 0 {
				e.launchStage(ss)
			}
		}
	}
	if opts.Centralize {
		e.centralizeInputs(job, begin)
	} else {
		begin()
	}
}

// report assembles a completed job's Result.
func (e *Engine) report(job *jobState) *Result {
	res := &Result{
		Counts:       job.resultCounts,
		Action:       job.action,
		Start:        job.start,
		End:          job.end,
		JCT:          job.end - job.start,
		CrossDCBytes: e.Net.CrossDCBytes() - job.startCross,
		CrossDCByTag: map[string]float64{},
		TaskAttempts: job.attempts,
		Retries:      job.retries,
	}
	for tag, b := range e.Net.CrossDCBytesByTag() {
		if d := b - job.startByTag[tag]; d > 0 {
			res.CrossDCByTag[tag] = d
		}
	}
	endPair := e.pairSnapshot()
	res.PairBytes = make([][]float64, len(endPair))
	for i := range endPair {
		res.PairBytes[i] = make([]float64, len(endPair[i]))
		for j := range endPair[i] {
			res.PairBytes[i][j] = endPair[i][j] - job.startPair[i][j]
		}
	}
	if job.action == ActionCollect || job.action == ActionSave {
		for _, part := range job.resultRecords {
			res.Records = append(res.Records, part...)
		}
	}
	for _, ss := range job.stages {
		res.Stages = append(res.Stages, ss.span)
	}
	return res
}

func (e *Engine) pairSnapshot() [][]float64 {
	n := e.Topo.NumDCs()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[i][j] = e.Net.PairBytes(topology.DCID(i), topology.DCID(j))
		}
	}
	return out
}

func (e *Engine) stallDiagnostic(jobs []*jobState) string {
	msg := ""
	for ji, job := range jobs {
		for _, ss := range job.stages {
			msg += fmt.Sprintf("j%d/%s[launched=%v done=%d/%d] ", ji, ss.name, ss.launched, ss.tasksDone, ss.st.NumTasks)
		}
	}
	return msg + fmt.Sprintf("queue=%d", e.Sched.QueueLen())
}

// centralizeInputs ships every input partition of the job's plan to the
// datacenter holding the largest input share, then calls done.
func (e *Engine) centralizeInputs(job *jobState, done func()) {
	plan := job.plan
	srcSeen := map[int]*rdd.RDD{}
	for _, st := range plan.Stages {
		for _, src := range st.Sources {
			srcSeen[src.ID] = src
		}
	}
	byDC := make([]float64, e.Topo.NumDCs())
	var srcs []*rdd.RDD
	for _, st := range plan.Stages {
		for _, src := range st.Sources {
			if srcSeen[src.ID] == nil {
				continue
			}
			srcSeen[src.ID] = nil
			srcs = append(srcs, src)
			for i := range src.Input {
				byDC[e.Topo.DCOf(src.Input[i].Host)] += src.Input[i].ModeledBytes
			}
		}
	}
	target, _ := shuffle.BestAggregator(byDC)
	pinned := topology.DCID(target)
	job.pinDC = &pinned
	workers := e.Topo.HostsIn(topology.DCID(target))
	pending := 0
	next := 0
	finished := false
	complete := func() {
		if pending == 0 && finished {
			done()
		}
	}
	for _, src := range srcs {
		for i := range src.Input {
			part := &src.Input[i]
			if e.Topo.DCOf(part.Host) == topology.DCID(target) {
				continue
			}
			dst := workers[next%len(workers)]
			next++
			pending++
			from := part.Host
			modeled := part.ModeledBytes
			start := e.Clock.Now()
			e.Net.StartFlow(from, dst, modeled, TagCentralize, func() {
				// The received blocks are written into the central DC's
				// HDFS before the job can read them.
				e.Clock.After(modeled/diskBps, func() {
					part.Host = dst
					pending--
					e.trace(trace.Span{
						Kind: trace.KindInput, ID: e.Tracer.NewSpanID(), Host: dst,
						SrcSite: e.siteName(from), DstSite: e.siteName(dst), Bytes: modeled,
						Start: start, End: e.Clock.Now(), Label: "centralize",
					})
					complete()
				})
			})
		}
	}
	finished = true
	complete()
}

func (e *Engine) trace(s trace.Span) {
	if s.Trace == "" {
		s.Trace = e.traceID
	}
	e.Tracer.Add(s)
}

// siteName resolves a host's datacenter name for span site attribution.
func (e *Engine) siteName(h topology.HostID) string {
	return e.Topo.DCs[e.Topo.DCOf(h)].Name
}

// LinkCosts returns the planner's link-cost view over DC indices: the
// flow-fed EWMA when the pair has been measured, else the topology's
// configured inter-DC rate.
func (e *Engine) LinkCosts() plan.LinkCostProvider {
	return plan.MeasuredLinkCosts(e.links, e.Topo.NumDCs(),
		func(dc int) string { return e.Topo.DCs[dc].Name },
		func(src, dst int) float64 { return e.Topo.InterBps(topology.DCID(src), topology.DCID(dst)) })
}

// NetworkStats assembles the current link estimate matrix — measured
// per-DC-pair throughput merged with the topology's configured rates.
// Safe to call while the event loop runs; it is the network section of
// both the run report and the in-progress one the telemetry plane's
// /report serves mid-run.
func (e *Engine) NetworkStats() *obs.NetworkStats {
	return netobs.ReportSection(e.links, netobs.ConfiguredDCLinks(e.Topo))
}

// noise returns the multiplicative compute-time jitter for one task.
func (e *Engine) noise() float64 {
	if e.cfg.ComputeNoise <= 0 {
		return 1
	}
	return e.noiseRNG.Jitter(e.cfg.ComputeNoise)
}
