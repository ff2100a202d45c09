package plan

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// Backend is the data plane the Driver runs a planned job on. A backend
// owns a set of integer-indexed task sites (workers for the live cluster,
// whatever a future substrate provides), runs tasks at sites, moves and
// stores shuffle bytes between them, and observes the run's events.
//
// Everything that is planning stays with the Driver: where each map output
// lives and how big it measured (the MapOutputTracker), a stage's input
// sizes, the range-partitioner barrier, placement and retries. Data-plane
// details (TCP, memory) stay entirely inside the backend; record semantics
// come from TaskOutput so every backend agrees with rdd.EvalLocal.
type Backend interface {
	// NumSites returns the number of task sites.
	NumSites() int

	// RunTask computes partition t.Part of t.Stage at t.Site, reading its
	// shuffle input through t.Gather. A result-stage task returns its
	// records. A map-stage task (t.Stage.OutSpec != nil) stores its output,
	// which TaskOutput returns prepared map-side — pushed to site t.AggTo
	// the moment the task finishes when t.AggTo >= 0 (the paper's
	// transferTo), kept at t.Site otherwise — keeping duplicate outputs
	// from retried attempts idempotent (last-write-wins by t.Attempt), and
	// returns what the Driver tracks about it: its measured bytes and its
	// rdd.RangeSample.
	RunTask(t Task) (TaskResult, error)

	// Sink receives the driver's run events: every task lifecycle
	// transition (scheduled / started / finished / retried / failed) via
	// OnTask, and each completed stage's execution window via OnStage.
	// Task events arrive from concurrent task goroutines.
	obs.Sink
}

// Task is one task attempt as the Driver hands it to a Backend.
type Task struct {
	Stage *dag.Stage
	Part  int
	Site  int
	// Attempt is the 1-based attempt number.
	Attempt int
	// AggTo is the site a map task pushes its output to, -1 for none.
	AggTo int

	outputs *MapOutputTracker // the Driver's; tasks only read it
}

// TaskResult is what only the data plane can know about a finished task.
type TaskResult struct {
	// Records are a result-stage task's output.
	Records []rdd.Pair
	// Bytes is a map task's prepared output as the data plane measures it;
	// Sample is rdd.RangeSample of that output.
	Bytes  float64
	Sample []string
}

// Gather reads reduce partition reduce of a shuffle: fetch is called once
// per map output, in map order, with the site the tracker says holds it,
// and the chunks it returns are concatenated once at their final size — the
// one copy between a backend's reads and the reduce-side sort.
func (t Task) Gather(shuffleID int, fetch func(mapPart, holder int) ([][]rdd.Pair, error)) ([]rdd.Pair, error) {
	var chunks [][]rdd.Pair
	for m, n := 0, t.outputs.NumMaps(shuffleID); m < n; m++ {
		holder, err := t.outputs.Holder(shuffleID, m)
		if err != nil {
			return nil, err
		}
		got, err := fetch(m, holder)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, got...)
	}
	return slices.Concat(chunks...), nil
}

// SiteHealth is an optional Backend extension: backends that can tell a
// live site from a dead one (the live cluster: a worker is down once it is
// closed) implement it, and the Driver then re-places retried task
// attempts away from unhealthy sites instead of hammering the site that
// just failed them.
type SiteHealth interface {
	// SiteHealthy reports whether the site is fit to run tasks.
	SiteHealthy(site int) bool
}

// PlacementObserver is an optional Backend extension: backends that
// surface placement decisions (run report, metrics) receive each
// automatic aggregator choice as it is made. Site labels are not filled
// in — the backend knows its own site names.
type PlacementObserver interface {
	OnPlacement(d obs.PlacementDecision)
}

// DriverConfig tunes one driven job.
type DriverConfig struct {
	// Aggregate enables Push/Aggregate: each map stage's output is pushed
	// to an aggregator site as tasks finish, instead of staying scattered
	// for fetch-based reads.
	Aggregate bool
	// Aggregators pins the aggregator sites explicitly (the analogue of
	// TransferTo(dc)). Empty means automatic per-shuffle selection under
	// Policy over the stage's input sizes — measured map-output sizes for
	// every shuffle past the first (the analogue of TransferToAuto).
	Aggregators []int
	// Policy selects the automatic-aggregation rule when Aggregators is
	// empty. Zero value is AggregatorBest (Eq. 2). AggregatorRandom is
	// the simulator's ablation only — the driver carries no seeded RNG.
	Policy AggregatorPolicy
	// LinkCosts supplies site-pair bandwidth estimates for
	// AggregatorBandwidth; other policies use it only to annotate the
	// decision record. Nil means uniform bandwidth.
	LinkCosts LinkCostProvider
	// SiteSlots bounds concurrent tasks per site. Default 2.
	SiteSlots int
	// Retry is the per-task attempt budget.
	Retry Retry
	// Logger receives structured run logs (stage windows, task retries
	// and failures, aggregator choices) with run/stage/task attributes.
	// Nil discards.
	Logger *slog.Logger
}

// Driver executes a planned job stage-by-stage over a Backend: topological
// stage order, map-output tracking, per-shuffle aggregator selection,
// receiver/reducer placement, the range-partitioner barrier, bounded task
// concurrency, and retry bookkeeping all live here — backends only run
// tasks and move bytes.
type Driver struct {
	job *Job
	be  Backend
	cfg DriverConfig
	log *slog.Logger
	ctx context.Context

	sems  []chan struct{}
	start time.Time
	// outputs tracks every map output of the job: holder, measured bytes,
	// range sample.
	outputs MapOutputTracker

	mu sync.Mutex
	// aggSites records, per shuffle ID, the sites its map output was
	// aggregated into (nil entry = scattered, fetch-based).
	aggSites map[int][]int
	// placements accumulates the automatic aggregator decisions, in
	// stage order, for the run report.
	placements []obs.PlacementDecision
}

// NewDriver prepares a driver; Run may be called once.
func NewDriver(job *Job, be Backend, cfg DriverConfig) *Driver {
	if cfg.SiteSlots <= 0 {
		cfg.SiteSlots = 2
	}
	return &Driver{job: job, be: be, cfg: cfg, log: obs.LoggerOr(cfg.Logger), aggSites: map[int][]int{}}
}

// AggregatedTo returns the sites a shuffle's output was aggregated into
// (nil when the shuffle stayed scattered).
func (d *Driver) AggregatedTo(shuffleID int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aggSites[shuffleID]
}

// Placements returns the automatic aggregator decisions made so far, in
// stage order.
func (d *Driver) Placements() []obs.PlacementDecision {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]obs.PlacementDecision(nil), d.placements...)
}

// Run executes every stage and returns the result stage's partitions.
func (d *Driver) Run() ([][]rdd.Pair, error) {
	return d.RunContext(context.Background())
}

// RunContext is Run under cooperative cancellation: once ctx is canceled
// the driver stops launching tasks and retries, waits for in-flight task
// attempts to return, and fails the job with an error wrapping ctx.Err()
// (so errors.Is distinguishes cancellation and deadline expiry from task
// failure). The backend is left quiescent — no driver goroutine outlives
// the call — so a live cluster stays reusable for the next job.
func (d *Driver) RunContext(ctx context.Context) ([][]rdd.Pair, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.ctx = ctx
	for _, st := range d.job.Stages() {
		if len(st.Phases) != 1 {
			return nil, fmt.Errorf("plan: stage %s carries transferTo phases; push/aggregate is driven by the backend's aggregation mode, not the lineage", st.Name())
		}
	}
	n := d.be.NumSites()
	if n <= 0 {
		return nil, fmt.Errorf("plan: backend has no task sites")
	}
	d.sems = make([]chan struct{}, n)
	for i := range d.sems {
		d.sems[i] = make(chan struct{}, d.cfg.SiteSlots)
	}
	d.start = time.Now()

	d.log.Info("plan: job starting", "stages", len(d.job.Stages()), "sites", n, "aggregate", d.cfg.Aggregate)
	var final [][]rdd.Pair
	for _, st := range d.job.Stages() {
		if err := d.canceled(); err != nil {
			d.log.Warn("plan: job canceled between stages", "next_stage", st.Name())
			return nil, err
		}
		out, err := d.runStage(st)
		if err != nil {
			d.log.Error("plan: job failed", "stage", st.Name(), "err", err)
			return nil, err
		}
		if st == d.job.Final() {
			final = out
		}
	}
	d.log.Info("plan: job finished", "sec", d.now())
	return final, nil
}

func (d *Driver) now() float64 { return time.Since(d.start).Seconds() }

// canceled returns the job-level cancellation error (wrapping ctx.Err())
// when the run's context is done, nil otherwise.
func (d *Driver) canceled() error {
	if err := d.ctx.Err(); err != nil {
		return fmt.Errorf("plan: job canceled: %w", err)
	}
	return nil
}

// runStage fans the stage's tasks out over the backend's sites, honors the
// aggregation mode, and finalizes the stage's shuffle at the barrier.
func (d *Driver) runStage(st *dag.Stage) ([][]rdd.Pair, error) {
	spanStart := d.now()
	agg := d.resolveAggregators(st)
	d.log.Debug("plan: stage starting", "stage", st.Name(), "id", st.ID, "tasks", st.NumTasks, "aggregators", agg)

	errs := make([]error, st.NumTasks)
	var results [][]rdd.Pair
	if st.OutSpec == nil {
		results = make([][]rdd.Pair, st.NumTasks)
	}
	var wg sync.WaitGroup
	for part := 0; part < st.NumTasks; part++ {
		part := part
		// Cancellation stops the launch loop cold: unlaunched tasks are
		// marked canceled without ever reaching the backend, and the
		// wg.Wait below still drains the attempts already in flight.
		if err := d.canceled(); err != nil {
			errs[part] = err
			continue
		}
		site := d.placeTask(st, part)
		aggTo := -1
		if len(agg) > 0 {
			aggTo = SpreadTopK(agg, len(agg), part)
		}
		d.taskEvent(obs.PhaseScheduled, st, part, site, 1, nil)
		if errs[part] = d.acquire(site); errs[part] != nil {
			continue // canceled while waiting for a task slot: never launched
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[part] = d.attempt(st, part, site, func(site, attempt int) error {
				res, err := d.be.RunTask(Task{Stage: st, Part: part, Site: site, Attempt: attempt, AggTo: aggTo, outputs: &d.outputs})
				if err != nil {
					return err
				}
				if st.OutSpec == nil {
					results[part] = res.Records
					return nil
				}
				holder := site
				if aggTo >= 0 {
					holder = aggTo
				}
				d.outputs.RecordMapOutput(st.OutSpec.ID, st.NumTasks, part, holder, attempt, res.Bytes, res.Sample)
				return nil
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if st.OutSpec != nil {
		if err := d.outputs.PrepareRange(st.OutSpec, st.NumTasks); err != nil {
			return nil, err
		}
	}
	d.be.OnStage(StageSpan{ID: st.ID, Name: st.Name(), Start: spanStart, End: d.now()})
	d.log.Debug("plan: stage finished", "stage", st.Name(), "id", st.ID, "sec", d.now()-spanStart)
	return results, nil
}

// taskEvent reports one task lifecycle transition to the backend's sink.
func (d *Driver) taskEvent(phase obs.TaskPhase, st *dag.Stage, part, site, attempt int, err error) {
	ev := obs.TaskEvent{
		Phase: phase, Stage: st.ID, StageName: st.Name(),
		Part: part, Site: site, Attempt: attempt, Time: d.now(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	d.be.OnTask(ev)
}

// resolveAggregators picks the stage's aggregator sites: the explicit
// override when configured, otherwise ChooseAggregator over inputSizes —
// actual map-output sizes for every shuffle input (Sec. III-B / IV-D).
// Automatic choices are recorded for the run report and handed to the
// backend when it implements PlacementObserver.
func (d *Driver) resolveAggregators(st *dag.Stage) []int {
	if st.OutSpec == nil || !d.cfg.Aggregate {
		return nil
	}
	agg := d.cfg.Aggregators
	if len(agg) == 0 {
		rank, dec := ChooseAggregator[int](st.OutSpec.ID, st.ID, d.inputSizes(st),
			d.cfg.Policy, d.cfg.LinkCosts, nil, nil)
		if len(rank) == 0 {
			return nil
		}
		agg = []int{rank[0]}
		d.mu.Lock()
		d.placements = append(d.placements, dec)
		d.mu.Unlock()
		if po, ok := d.be.(PlacementObserver); ok {
			po.OnPlacement(dec)
		}
		d.log.Info("plan: aggregator chosen",
			"stage", st.Name(), "shuffle", st.OutSpec.ID,
			"policy", d.cfg.Policy.String(), "site", rank[0],
			"cost_sec", dec.CostSec, "source", dec.Source)
	}
	d.mu.Lock()
	d.aggSites[st.OutSpec.ID] = agg
	d.mu.Unlock()
	return agg
}

// inputSizes is stage st's input bytes per site, what ChooseAggregator
// ranks: the leaf input partitions each task reads at the site placeTask
// runs that task on, plus the measured map outputs feeding the stage's
// shuffle boundaries at their holders. Leaf records are sized as
// rdd.EncodedSize, the unit a backend measures its map outputs in, so a
// predicted transfer cost is a prediction about bytes a data plane moves.
func (d *Driver) inputSizes(st *dag.Stage) []float64 {
	bySite := make([]float64, d.be.NumSites())
	for part := 0; part < st.NumTasks; part++ {
		bySite[d.placeTask(st, part)] += leafBytes(st.Phases[0].Top, part)
	}
	d.outputs.AddBoundaryBytes(st, bySite)
	return bySite
}

// placeTask places one task: shuffle-reading tasks follow aggregated input
// (the paper's preferredLocations restricted to the aggregator); everything
// else round-robins, since leaf input ships from the driver rather than
// residing on sites.
func (d *Driver) placeTask(st *dag.Stage, part int) int {
	if len(st.Boundaries) > 0 {
		if sites := d.boundarySites(st); len(sites) > 0 {
			return sites[part%len(sites)]
		}
	}
	return part % d.be.NumSites()
}

// boundarySites returns the aggregator sites of the stage's shuffle inputs
// when every one of them was aggregated; nil otherwise.
func (d *Driver) boundarySites(st *dag.Stage) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sites []int
	for _, b := range st.Boundaries {
		for di := range b.Deps {
			s, ok := d.aggSites[b.Deps[di].Shuffle.ID]
			if !ok || len(s) == 0 {
				return nil
			}
			if sites == nil {
				sites = s
			}
		}
	}
	return sites
}

// acquire takes one of site's task slots, waiting for it until the job is
// canceled.
func (d *Driver) acquire(site int) error {
	select {
	case d.sems[site] <- struct{}{}:
		return nil
	case <-d.ctx.Done():
		return d.canceled()
	}
}

// attempt runs one task against the retry budget, reporting every
// transition to the backend's event sink. Retried attempts are re-placed
// away from sites the backend reports unhealthy (SiteHealth), so a task
// whose worker died mid-run fails over instead of retrying into the hole.
// The caller took a slot at site; the slot follows the task when it moves,
// so SiteSlots bounds every site whatever the retries did, and attempt
// releases the one it holds when it returns.
func (d *Driver) attempt(st *dag.Stage, part, site int, run func(site, attempt int) error) error {
	held := true
	defer func() {
		if held {
			<-d.sems[site]
		}
	}()
	for att := 1; ; att++ {
		d.taskEvent(obs.PhaseStarted, st, part, site, att, nil)
		err := run(site, att)
		if err == nil {
			d.taskEvent(obs.PhaseFinished, st, part, site, att, nil)
			return nil
		}
		d.taskEvent(obs.PhaseFailed, st, part, site, att, err)
		d.log.Warn("plan: task attempt failed", "stage", st.Name(), "part", part, "site", site, "attempt", att, "err", err)
		// A canceled job burns no retry budget: surface the cancellation
		// instead of re-running a task whose job is being torn down.
		if cerr := d.canceled(); cerr != nil {
			return cerr
		}
		if !d.cfg.Retry.Allow(att + 1) {
			return fmt.Errorf("plan: task %s/t%d failed after %d attempt(s): %w", st.Name(), part, att, err)
		}
		if moved := d.replaceSite(site); moved != site {
			d.log.Info("plan: re-placing retried task off unhealthy site", "stage", st.Name(), "part", part, "from", site, "to", moved)
			<-d.sems[site]
			site = moved
			if err := d.acquire(site); err != nil {
				held = false
				return err
			}
		}
		d.taskEvent(obs.PhaseRetried, st, part, site, att+1, nil)
	}
}

// replaceSite returns the next healthy site after an attempt failed at
// site, or site itself when the backend reports it healthy (transient
// task error), cannot judge health, or has no healthy site to offer.
func (d *Driver) replaceSite(site int) int {
	sh, ok := d.be.(SiteHealth)
	if !ok || sh.SiteHealthy(site) {
		return site
	}
	n := d.be.NumSites()
	for i := 1; i < n; i++ {
		if cand := (site + i) % n; sh.SiteHealthy(cand) {
			return cand
		}
	}
	return site
}
