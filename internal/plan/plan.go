// Package plan is the backend-neutral execution core of wanshuffle: it
// turns an RDD lineage into a planned job (shuffle-separated stages via
// internal/dag), selects per-shuffle aggregators with ChooseAggregator (the
// paper's Eq. (2) rule by default) from measured input sizes, places receiver
// and reducer tasks, and caps every task at MaxAttempts attempts.
//
// Two backends consume the planner:
//
//   - internal/exec, the simnet-timed discrete-event simulator, uses the
//     planning and placement primitives (BuildJob, ChooseAggregator,
//     SpreadTopK, MaxAttempts) inside its event-driven task runtime;
//   - internal/livecluster implements the Backend interface and is driven
//     stage-by-stage by the Driver, moving every shuffle byte over real
//     TCP connections.
//
// Keeping the planner in one package guarantees both backends cut stages,
// pick aggregators, and aggregate shuffle records identically, so their
// outputs can be validated against each other and against rdd.EvalLocal.
package plan

import (
	"fmt"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// MaxAttempts is how many times either backend runs a task before it fails
// the job (Spark's spark.task.maxFailures default).
const MaxAttempts = 4

// Job is one planned job: the validated target lineage plus its stage DAG.
type Job struct {
	Target *rdd.RDD
	Plan   *dag.Plan
}

// BuildJob validates target's lineage and plans its stages.
func BuildJob(target *rdd.RDD) (*Job, error) {
	p, err := dag.BuildPlan(target)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return &Job{Target: target, Plan: p}, nil
}

// Stages returns the job's stages in topological order (parents first).
func (j *Job) Stages() []*dag.Stage { return j.Plan.Stages }

// Final returns the result stage.
func (j *Job) Final() *dag.Stage { return j.Plan.Final }

// StageSpan reports one stage's execution window. The simulator fills it
// with virtual seconds, the live cluster with wall-clock seconds since the
// job started; both backends emit the same shape (Fig. 9's unit). It is
// the canonical obs.StageEvent, so stage windows flow through event sinks
// and into the shared run report without conversion.
type StageSpan = obs.StageEvent
