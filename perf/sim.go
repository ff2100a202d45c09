package perf

import (
	"fmt"
	"runtime"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/workloads"
)

// simSeedsPerPass is how many seeds (seed, seed+1, ...) one sim-fig7 job
// covers. Fig. 7 proper is -runs 10; a job is a fifth of it, so that the
// window fits several jobs: regenerating the figure costs about
// 5 x job_s_p50.
const simSeedsPerPass = 2

// simRefStride is how many cells share one speed correction.
const simRefStride = 5

// simSchemes are Fig. 7's three schemes in presentation order.
var simSchemes = []core.Scheme{core.SchemeSpark, core.SchemeCentralized, core.SchemeAggShuffle}

// simCell is one (workload, scheme, seed) simulation, built and ready.
type simCell struct {
	name string
	ctx  *core.Context
	inst *workloads.Instance
}

// simPass is what one job (one pass over every cell) leaves behind.
type simPass struct {
	sec        float64 // summed Save time
	corrected  float64 // the same, each cell speed-corrected (see calib.go)
	cellSecs   []float64
	verifySec  float64
	mallocs    uint64
	allocBytes uint64
	// Exact counts and virtual-time sums over the pass: the reproduced
	// block. A simulator speed-up must leave them identical.
	attempts int
	flows    int
	jctSum   float64
	crossSum float64
}

func (p simPass) reproduced() map[string]float64 {
	return map[string]float64{
		"exec.task_attempts":      float64(p.attempts),
		"simnet.completed_flows":  float64(p.flows),
		"exec.virtual_jct_s_sum":  p.jctSum,
		"exec.cross_dc_mb_sum":    p.crossSum / 1e6,
		"cells_per_job":           float64(len(p.cellSecs)),
		"fig7_seeds_per_job":      simSeedsPerPass,
		"fig7_regeneration_ratio": 10.0 / simSeedsPerPass,
	}
}

// simWorkloads returns the Fig. 7 workloads, all five at scale 1, or a
// cheap pair when the run is scaled down for tests.
func simWorkloads(o Options) []*workloads.Workload {
	all := workloads.All()
	if o.scale() < 1 {
		return all[:2]
	}
	return all
}

// makeCells builds every cell of one pass: a fresh simulated cluster and
// a fresh lineage each, as bench.RunOne builds them (jitter 0.25).
func makeCells(o Options, traceOn bool) ([]simCell, []float64) {
	var cells []simCell
	var secs []float64
	for _, w := range simWorkloads(o) {
		for _, scheme := range simSchemes {
			for s := int64(0); s < simSeedsPerPass; s++ {
				seed := o.Seed + s
				t0 := time.Now()
				ctx := core.NewContext(core.Config{
					Seed: seed, Scheme: scheme,
					Exec: exec.Config{Net: simnet.Config{JitterAmplitude: 0.25}, Trace: traceOn},
				})
				inst := w.Make(ctx, workloads.Options{Seed: seed, Scale: 1})
				secs = append(secs, time.Since(t0).Seconds())
				cells = append(cells, simCell{name: fmt.Sprintf("%s/%v/seed%d", w.Name, scheme, seed), ctx: ctx, inst: inst})
			}
		}
	}
	return cells, secs
}

// runPass times core.Context.Save on every cell, one simulation at a
// time, validating each output outside the timer.
func runPass(res *Result, rec *Recorder, ref *refTimer, parent int, name string, cells []simCell) (p simPass, ok bool) {
	ok = true
	id := rec.Begin(parent, name)
	defer rec.End(id)
	res.Attempted++
	var m0, m1 runtime.MemStats
	// The simulator is single-threaded, so the kernel runs on one
	// goroutine. It is sampled every simRefStride cells, and each group
	// of cells is corrected by the two samples around it.
	refBefore, groupSec := 0.0, 0.0
	if ref != nil {
		refBefore = ref.sample()
	}
	for ci, c := range cells {
		cellID := rec.Begin(id, "cell "+c.name)
		runtime.ReadMemStats(&m0)
		saveID := rec.Begin(cellID, "save")
		t0 := time.Now()
		rep, err := c.ctx.Save(c.inst.Target)
		sec := time.Since(t0).Seconds()
		rec.End(saveID)
		runtime.ReadMemStats(&m1)
		if err != nil {
			res.fail(fmt.Errorf("sim-fig7 %s %s: %w", name, c.name, err))
			rec.End(cellID)
			return p, false
		}
		p.sec += sec
		p.cellSecs = append(p.cellSecs, sec)
		groupSec += sec
		if ref == nil {
			p.corrected += sec
		} else if (ci+1)%simRefStride == 0 || ci == len(cells)-1 {
			refAfter := ref.sample()
			p.corrected += groupSec * speedFactor(refBefore, refAfter)
			refBefore, groupSec = refAfter, 0
		}
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.attempts += rep.TaskAttempts
		p.flows += c.ctx.Engine().Net.CompletedFlows()
		p.jctSum += rep.JCT
		p.crossSum += rep.CrossDCBytes
		verifyID := rec.Begin(cellID, "verify")
		v0 := time.Now()
		err = c.inst.Validate(rep.Records)
		p.verifySec += time.Since(v0).Seconds()
		rec.End(verifyID)
		rec.End(cellID)
		if err != nil && ok {
			res.fail(fmt.Errorf("sim-fig7 %s %s: wrong output: %w", name, c.name, err))
			ok = false
		}
	}
	return p, ok
}

// simLoop runs the warm-up pass (if asked for) and then timed passes
// until the window is used up. first holds the cells set-up already
// built; every later pass builds its own, outside the job timer.
func simLoop(res *Result, rec *Recorder, ref *refTimer, parent int, o Options, seconds float64, minJobs int, warmup bool, first []simCell) []simPass {
	next := func(name string) []simCell {
		if cells := first; cells != nil {
			first = nil
			return cells
		}
		var cells []simCell
		rec.Do(parent, name+" make", func(int) { cells, _ = makeCells(o, false) })
		return cells
	}
	if warmup {
		runPass(res, rec, ref, parent, "warmup[0]", next("warmup[0]"))
	}
	var passes []simPass
	start := time.Now()
	for i := 0; o.wantsJob(i, minJobs, start, seconds); i++ {
		name := fmt.Sprintf("job[%d]", i)
		if p, ok := runPass(res, rec, ref, parent, name, next(name)); ok {
			passes = append(passes, p)
		}
	}
	return passes
}

// checkSim asserts same-seed determinism of the reproduced block across
// the run's passes. The exact counts (task attempts, completed flows,
// cross-DC bytes) must repeat or the run is invalid. The virtual JCT sum
// is reported the same way but only as an advisory: at the parent commit
// one Fig. 7 cell (WordCount/AggShuffle at seed 5) lands on a second JCT
// in about one run in six with its counts unchanged, and a benchmark
// that may not touch the simulator cannot make that a failed run.
func checkSim(res *Result, passes []simPass) {
	if len(passes) == 0 {
		res.check("timed_jobs", false, "no timed pass succeeded")
		return
	}
	first := passes[0]
	counts, jct := true, true
	for _, p := range passes[1:] {
		if p.attempts != first.attempts || p.flows != first.flows || p.crossSum != first.crossSum {
			counts = false
		}
		if p.jctSum != first.jctSum {
			jct = false
		}
	}
	res.check("reproduced_counts_identical", counts, "%d passes: %d task attempts, %d flows, cross-DC %.3f MB",
		len(passes), first.attempts, first.flows, first.crossSum/1e6)
	res.Checks = append(res.Checks, Check{
		Name: "reproduced_jct_identical", OK: jct, Advisory: true,
		Detail: fmt.Sprintf("virtual JCT sum %.6f s over %d passes", first.jctSum, len(passes)),
	})
	res.Reproduced = first.reproduced()
}

// simSamples maps passes onto the job samples the end-to-end metrics are
// computed from: the unit of work is a task attempt, and the bytes are
// the modeled cross-DC bytes.
func simSamples(passes []simPass) []jobSample {
	out := make([]jobSample, len(passes))
	for i, p := range passes {
		out[i] = jobSample{sec: p.sec, factor: ratio(p.corrected, p.sec), verifySec: p.verifySec, mallocs: p.mallocs, allocBytes: p.allocBytes, wire: int64(p.crossSum)}
	}
	return out
}

// runSim runs the sim-fig7 workload.
func runSim(o Options) (*Result, []Span, error) {
	res := newResult(SimFig7, o)
	var rec *Recorder
	if o.Trace {
		rec = NewRecorder(fmt.Sprintf("%s-seed%d", SimFig7, o.Seed))
	}
	root := rec.Begin(0, "run")

	var ref *refTimer
	if !o.Trace {
		ref = newRefTimer(1)
	}
	setups := &setupPhase{}
	var first []simCell
	for setups.more(o) {
		_ = setups.time(ref, func() error {
			rec.Do(root, "setup", func(int) { first, _ = makeCells(o, false) })
			return nil
		})
	}

	window, minJobs := o.Seconds, minTimedJobs
	if o.Trace {
		window, minJobs = o.Seconds*tracedWindowShare, minTracedJobs
	}
	gc := openMemWindow()
	passes := simLoop(res, rec, ref, root, o, window, minJobs, !o.Trace, first)
	checkSim(res, passes)
	attempts := 0.0
	if len(passes) > 0 {
		attempts = float64(passes[0].attempts)
	}
	if o.Trace {
		gc.close(res)
		if err := simPerLayer(res, rec, root, o, passes); err != nil {
			return nil, nil, err
		}
		res.TimedJobs, res.RecordsPerJob = len(passes), attempts
	} else {
		endToEnd(res, setups, simSamples(passes), attempts)
	}
	rec.End(root)
	res.finish()
	return res, rec.Finish(), nil
}
