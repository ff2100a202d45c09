package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/shuffle"
)

// Backend is the data plane the driver runs a planned job on. A backend
// owns a set of integer-indexed task sites (workers for the live cluster,
// whatever a future substrate provides), runs tasks at sites, moves and
// stores shuffle bytes between them, and observes the run's events.
//
// Everything that is planning stays with the driver: where each map output
// lives and how big it measured (a shuffle.Tracker), a stage's input
// sizes, the range-partitioner barrier, placement, retries and each site's
// cache of Cached partitions. Data-plane details (TCP, memory) stay
// entirely inside the backend; record semantics come from TaskOutput so
// every backend agrees with rdd.EvalLocal.
type Backend interface {
	// NumSites returns the number of task sites.
	NumSites() int

	// SiteHealthy reports whether the site is fit to run tasks. The driver
	// re-places a failed task's next attempt away from an unhealthy site
	// instead of retrying into it.
	SiteHealthy(site int) bool

	// RunTask computes partition t.Part of t.Stage at t.Site, reading its
	// shuffle input through t.Gather. A result-stage task returns its
	// records. A map-stage task (t.Stage.OutSpec != nil) stores its output,
	// which TaskOutput returns prepared map-side — pushed to site t.AggTo
	// the moment the task finishes when t.AggTo >= 0 (the paper's
	// transferTo), kept at t.Site otherwise — keeping duplicate outputs
	// from retried attempts idempotent (last-write-wins by t.Attempt), and
	// returns TaskOutput's result, which carries what the driver tracks
	// about it: its record-codec bytes and its rdd.RangeSample.
	RunTask(t Task) (TaskResult, error)

	// Sink receives the driver's run events: every task lifecycle
	// transition (scheduled / started / finished / retried / failed) via
	// OnTask, each completed stage's window via OnStage, and each automatic
	// aggregator decision via OnPlacement, from concurrent task goroutines.
	obs.Sink
}

// Task is one task attempt as the driver hands it to a Backend.
type Task struct {
	Stage *dag.Stage
	Part  int
	Site  int
	// Attempt is the 1-based attempt number.
	Attempt int
	// AggTo is the site a map task pushes its output to, -1 for none.
	AggTo int

	outputs *shuffle.Tracker // the driver's; tasks only read it
	cache   *siteCache       // the driver's, of the task's site; nil caches nothing
}

// TaskResult is a task's output as TaskOutput computes it.
type TaskResult struct {
	// Records are the task's output; the driver keeps a result stage's.
	Records []rdd.Pair
	// Bytes is a map task's prepared output in record-codec bytes, what a
	// data plane moves; sample is rdd.RangeSample of that output.
	Bytes  float64
	sample []string
}

// Gather reads reduce partition reduce of a shuffle: fetch is called once
// per map output, in map order, with the site the tracker says holds it, and
// the chunks it returns are the partition's runs, in that order and copied
// nowhere — rdd.ReduceAggregate reads them as they lie, and its output is
// the one copy between a backend's reads and the reduce-side sort. When a
// map output is missing, Gather fetches nothing and its error wraps
// shuffle.ErrNoMapOutput, naming (shuffle, map part).
func (t Task) Gather(shuffleID int, fetch func(mapPart, holder int) ([][]rdd.Pair, error)) ([][]rdd.Pair, error) {
	holders, err := t.outputs.Holders(shuffleID)
	if err != nil {
		return nil, err
	}
	var runs [][]rdd.Pair
	for m, holder := range holders {
		got, err := fetch(m, holder)
		if err != nil {
			return nil, err
		}
		runs = append(runs, got...)
	}
	return runs, nil
}

// DriverConfig tunes one driven job.
type DriverConfig struct {
	// Aggregate applies dag.AutoAggregate to the job's lineage and plans it
	// again: a push is a transferTo in the lineage, and this field stays
	// only because perf/ sets it (ROADMAP 1(b)).
	Aggregate bool
	// Policy selects the aggregation rule. Zero value is AggregatorBest
	// (Eq. 2). AggregatorRandom is the simulator's ablation only — the
	// driver carries no seeded RNG.
	Policy AggregatorPolicy
	// LinkCosts supplies site-pair bandwidth estimates for
	// AggregatorBandwidth; other policies use it only to annotate the
	// decision record. Nil means uniform bandwidth.
	LinkCosts LinkCostProvider
	// SiteSlots bounds concurrent tasks per site. Default 2.
	SiteSlots int
}

// driver executes a planned job stage-by-stage over a Backend: topological
// stage order, map-output tracking, per-shuffle aggregator selection,
// receiver/reducer placement, the range-partitioner barrier, bounded task
// concurrency, retry bookkeeping and each site's cache of Cached partitions
// all live here — backends only run tasks and move bytes. Everything the
// driver keeps per site lives as long as its job.
type driver struct {
	job *Job
	be  Backend
	cfg DriverConfig
	ctx context.Context

	sems  []chan struct{}
	start time.Time
	// outputs tracks every map output of the job: holder, measured bytes,
	// range sample.
	outputs shuffle.Tracker
	// caches[site] holds the Cached partitions the job's tasks computed at
	// the site (siteCache): node IDs are graph-scoped, so none outlives the
	// job.
	caches []siteCache
}

// NewDriver prepares a driver; Run may be called once.
func NewDriver(job *Job, be Backend, cfg DriverConfig) *driver {
	if cfg.SiteSlots <= 0 {
		cfg.SiteSlots = 2
	}
	return &driver{job: job, be: be, cfg: cfg}
}

// Run executes every stage and returns the result stage's partitions.
func (d *driver) Run() ([][]rdd.Pair, error) {
	return d.RunContext(context.Background())
}

// RunContext is Run under cooperative cancellation: once ctx is canceled
// the driver stops launching tasks and retries, waits for in-flight task
// attempts to return, and fails the job with an error wrapping ctx.Err()
// (so errors.Is distinguishes cancellation and deadline expiry from task
// failure). The backend is left quiescent — no driver goroutine outlives
// the call — so a live cluster stays reusable for the next job.
func (d *driver) RunContext(ctx context.Context) ([][]rdd.Pair, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.ctx = ctx
	if d.cfg.Aggregate {
		dag.AutoAggregate(d.job.target)
		job, err := BuildJob(d.job.target)
		if err != nil {
			return nil, err
		}
		d.job = job
	}
	// Any transferTo but the one Pushes names — TransferTo(dc),
	// TransferToTopK(k > 1), operators above the transfer, a transfer in the
	// result stage — fails the job before a task runs.
	for _, st := range d.job.Stages() {
		if len(st.Phases) > 1 && !Pushes(st) {
			return nil, fmt.Errorf("plan: stage %s carries a transferTo the driver cannot run: it pushes only a single-aggregator TransferToAuto directly before a shuffle", st.Name())
		}
		if st.OutSpec != nil {
			d.outputs.Declare(st.OutSpec.ID, st.NumTasks)
		}
	}
	n := d.be.NumSites()
	if n <= 0 {
		return nil, fmt.Errorf("plan: backend has no task sites")
	}
	d.caches = make([]siteCache, n)
	d.sems = make([]chan struct{}, n)
	for i := range d.sems {
		d.sems[i] = make(chan struct{}, d.cfg.SiteSlots)
	}
	d.start = time.Now()

	var final [][]rdd.Pair
	for _, st := range d.job.Stages() {
		if err := d.canceled(); err != nil {
			return nil, err
		}
		out, err := d.runStage(st)
		if err != nil {
			return nil, err
		}
		if st == d.job.final() {
			final = out
		}
	}
	return final, nil
}

func (d *driver) now() float64 { return time.Since(d.start).Seconds() }

// canceled returns the job-level cancellation error (wrapping ctx.Err())
// when the run's context is done, nil otherwise.
func (d *driver) canceled() error {
	if err := d.ctx.Err(); err != nil {
		return fmt.Errorf("plan: job canceled: %w", err)
	}
	return nil
}

// runStage fans the stage's missing tasks out over the backend's sites —
// a map stage's are the parts the tracker lists as missing, which on a
// first run is every part; a result stage's are all of its parts — pushes
// their outputs to the stage's aggregator when the stage pushes, and
// finalizes the stage's shuffle at the barrier.
func (d *driver) runStage(st *dag.Stage) ([][]rdd.Pair, error) {
	spanStart := d.now()
	name := st.Name() // formatted once: every task event carries it
	at := d.stageSite(st)
	aggTo := d.resolveAggregator(st, at)

	errs := make([]error, st.NumTasks)
	var results [][]rdd.Pair
	var parts []int
	if st.OutSpec != nil {
		parts = d.outputs.Missing(st.OutSpec.ID)
	} else {
		results = make([][]rdd.Pair, st.NumTasks)
		parts = make([]int, st.NumTasks)
		for part := range parts {
			parts[part] = part
		}
	}
	var wg sync.WaitGroup
	for _, part := range parts {
		// Cancellation stops the launch loop cold: unlaunched tasks are
		// marked canceled without ever reaching the backend, and the
		// wg.Wait below still drains the attempts already in flight.
		if err := d.canceled(); err != nil {
			errs[part] = err
			continue
		}
		site := d.placeTask(at, part)
		d.taskEvent(obs.PhaseScheduled, st.ID, name, part, site, 1, nil)
		if errs[part] = d.acquire(site); errs[part] != nil {
			continue // canceled while waiting for a task slot: never launched
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[part] = d.attempt(st.ID, name, part, site, func(site, attempt int) error {
				res, err := d.be.RunTask(Task{Stage: st, Part: part, Site: site, Attempt: attempt, AggTo: aggTo,
					outputs: &d.outputs, cache: &d.caches[site]})
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
				d.outputs.Record(st.OutSpec.ID, part, holder, res.Bytes, res.sample)
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
		if err := d.outputs.PrepareRange(st.OutSpec); err != nil {
			return nil, err
		}
	}
	d.be.OnStage(StageSpan{ID: st.ID, Name: name, Start: spanStart, End: d.now()})
	return results, nil
}

// taskEvent reports one task lifecycle transition to the backend's sink.
func (d *driver) taskEvent(phase obs.TaskPhase, stage int, name string, part, site, attempt int, err error) {
	ev := obs.TaskEvent{
		Phase: phase, Stage: stage, StageName: name,
		Part: part, Site: site, Attempt: attempt, Time: d.now(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	d.be.OnTask(ev)
}

// resolveAggregator picks the aggregator site of a stage that pushes, -1
// when its output stays scattered: ChooseAggregator over inputSizes —
// actual map-output sizes for every shuffle input (Sec. III-B / IV-D). The
// choice goes to the backend's sink, without site labels: the backend knows
// its own site names. at is the stage's stageSite.
func (d *driver) resolveAggregator(st *dag.Stage, at int) int {
	if !Pushes(st) {
		return -1
	}
	rank, dec := ChooseAggregator[int](st.OutSpec.ID, st.ID, d.inputSizes(st, at),
		d.cfg.Policy, d.cfg.LinkCosts, nil, nil)
	if len(rank) == 0 {
		return -1
	}
	d.be.OnPlacement(dec)
	return rank[0]
}

// Pushes reports whether the driver pushes map stage st's output to an
// aggregator: the stage's output is a single-aggregator TransferToAuto,
// which dag plans as two phases, [work, transfer node].
func Pushes(st *dag.Stage) bool {
	tr := st.Phases[0].Transfer
	return len(st.Phases) == 2 && st.OutSpec != nil && st.Output == st.Phases[0].TransferNode && tr.Auto && tr.K <= 1
}

// inputSizes is stage st's input bytes per site, what ChooseAggregator
// ranks: over a leaf, the input partition each task reads at the site
// placeTask runs that task on (at is the stage's stageSite); over a
// shuffle, the measured map outputs feeding it at their holders. Leaf
// records are sized as rdd.EncodedSize, the unit a backend measures its map
// outputs in, so a predicted transfer cost is a prediction about bytes a
// data plane moves; they never leave the process, so a value the record
// codec cannot carry is sized, not refused.
func (d *driver) inputSizes(st *dag.Stage, at int) []float64 {
	bySite := make([]float64, d.be.NumSites())
	for part, in := range st.Base.Input { // none over a shuffle
		n, _ := rdd.EncodedSize(in.Records)
		bySite[d.placeTask(at, part)] += n
	}
	for di := range st.Base.Deps {
		d.outputs.AddSiteBytes(st.Base.Deps[di].Shuffle.ID, bySite)
	}
	return bySite
}

// stageSite returns the site every task of stage st runs on, -1 when its
// tasks round-robin. Shuffle-reading tasks follow aggregated input (the
// paper's preferredLocations restricted to the aggregator): when every
// parent stage pushes, the stage runs where the tracker holds its first
// input shuffle. Everything else round-robins, since leaf input ships from
// the driver rather than residing on sites, and a fetched shuffle's outputs
// lie on every mapper's.
func (d *driver) stageSite(st *dag.Stage) int {
	if len(st.Parents) == 0 {
		return -1
	}
	for _, p := range st.Parents {
		if !Pushes(p) {
			return -1
		}
	}
	holders, err := d.outputs.Holders(st.Base.Deps[0].Shuffle.ID)
	if err != nil {
		return -1 // the stage's read names the missing output
	}
	return holders[0]
}

// placeTask places task part of a stage whose stageSite is at.
func (d *driver) placeTask(at, part int) int {
	if at >= 0 {
		return at
	}
	return part % d.be.NumSites()
}

// acquire takes one of site's task slots, waiting for it until the job is
// canceled.
func (d *driver) acquire(site int) error {
	select {
	case d.sems[site] <- struct{}{}:
		return nil
	case <-d.ctx.Done():
		return d.canceled()
	}
}

// attempt runs one task up to MaxAttempts times, reporting every
// transition to the backend's event sink. Retried attempts are re-placed
// away from sites the backend reports unhealthy (SiteHealthy), so a task
// whose worker died mid-run fails over instead of retrying into the hole.
// The caller took a slot at site; the slot follows the task when it moves,
// so SiteSlots bounds every site whatever the retries did, and attempt
// releases the one it holds when it returns.
func (d *driver) attempt(stage int, name string, part, site int, run func(site, attempt int) error) error {
	held := true
	defer func() {
		if held {
			<-d.sems[site]
		}
	}()
	for att := 1; ; att++ {
		d.taskEvent(obs.PhaseStarted, stage, name, part, site, att, nil)
		err := run(site, att)
		if err == nil {
			d.taskEvent(obs.PhaseFinished, stage, name, part, site, att, nil)
			return nil
		}
		d.taskEvent(obs.PhaseFailed, stage, name, part, site, att, err)
		// A canceled job burns no retry budget: surface the cancellation
		// instead of re-running a task whose job is being torn down.
		if cerr := d.canceled(); cerr != nil {
			return cerr
		}
		// The record codec refuses a value again on every attempt.
		var unsupported *rdd.UnsupportedValueError
		if att >= MaxAttempts || errors.As(err, &unsupported) {
			return fmt.Errorf("plan: task %s/t%d failed after %d attempt(s): %w", name, part, att, err)
		}
		if moved := d.replaceSite(site); moved != site {
			<-d.sems[site]
			site = moved
			if err := d.acquire(site); err != nil {
				held = false
				return err
			}
		}
		d.taskEvent(obs.PhaseRetried, stage, name, part, site, att+1, nil)
	}
}

// replaceSite returns the next healthy site after an attempt failed at
// site, or site itself when the backend reports it healthy (transient
// task error) or has no healthy site to offer.
func (d *driver) replaceSite(site int) int {
	if d.be.SiteHealthy(site) {
		return site
	}
	n := d.be.NumSites()
	for i := 1; i < n; i++ {
		if cand := (site + i) % n; d.be.SiteHealthy(cand) {
			return cand
		}
	}
	return site
}
