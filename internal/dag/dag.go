// Package dag turns an RDD lineage into an executable plan of
// shuffle-separated stages, mirroring Spark's DAGScheduler.
//
// Beyond stock Spark, the planner understands TransferredRDDs: a stage
// containing transferTo points is split into phases, where each phase after
// the first runs as receiver tasks in the aggregator datacenter, fed by
// pipelined pushes from the previous phase (Sec. IV of the paper). The
// planner also implements the paper's automatic embedding (Sec. IV-D):
// AutoAggregate inserts a transferTo in front of every shuffle, which is
// what Spark's modified DAGScheduler does when spark.shuffle.aggregation is
// enabled.
package dag

import (
	"fmt"
	"slices"

	"wanshuffle/internal/rdd"
)

// phase is one pipelined segment of a stage. Top is the last RDD the phase
// computes; Transfer, when non-nil, pushes each computed partition to a
// receiver task that continues with the next phase. TransferNode is the
// TransferredRDD marking the boundary (the next phase reads it as input).
type phase struct {
	Top          *rdd.RDD
	Transfer     *rdd.TransferSpec
	TransferNode *rdd.RDD
}

// Stage is a set of tasks computing the partitions of Output, pipelined
// through Phases.
type Stage struct {
	ID int
	// OutSpec is the shuffle this stage's output feeds; nil only for the
	// plan's final (result) stage.
	OutSpec *rdd.ShuffleSpec
	// Output is the RDD materialized by the stage's last phase.
	Output *rdd.RDD
	Phases []phase
	// Base is the node the stage's chain of narrow operators reads: a leaf,
	// whose partition p task p reads, or a ShuffledRDD, whose shuffle deps
	// are the stage's inputs and whose reduce-side aggregation runs in the
	// stage's tasks.
	Base *rdd.RDD
	// Parents are the stages producing this stage's input shuffles, one
	// per dependency of Base.
	Parents []*Stage

	NumTasks int
}

// Name returns a human-readable stage name.
func (s *Stage) Name() string {
	kind := "map"
	if s.OutSpec == nil {
		kind = "result"
	}
	return fmt.Sprintf("stage%d(%s:%s)", s.ID, kind, s.Output.Name)
}

// Plan is an executable stage DAG. Stages are topologically ordered:
// parents precede children.
type Plan struct {
	Stages []*Stage
	Final  *Stage
}

// BuildPlan plans the job that materializes target. It validates the
// lineage first.
func BuildPlan(target *rdd.RDD) (*Plan, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	b := &builder{byShuffle: map[int]*Stage{}}
	final := b.stageFor(target, nil)
	return &Plan{Stages: b.stages, Final: final}, nil
}

type builder struct {
	byShuffle map[int]*Stage
	stages    []*Stage
	nextID    int
}

// stageFor builds (or reuses) the stage materializing output; outSpec is
// the shuffle the stage feeds, nil for the result stage. A narrow RDD has
// one parent, so the stage is the chain from output down to its base, and
// each transfer node met on the way cuts a phase: the lowest ends the
// first phase, and the phase above it reads the transfer node as input.
func (b *builder) stageFor(output *rdd.RDD, outSpec *rdd.ShuffleSpec) *Stage {
	if outSpec != nil {
		if st, ok := b.byShuffle[outSpec.ID]; ok {
			return st
		}
	}
	st := &Stage{
		OutSpec:  outSpec,
		Output:   output,
		NumTasks: output.NumParts(),
	}
	if outSpec != nil {
		b.byShuffle[outSpec.ID] = st
	}
	n := output
	for ; len(n.Deps) > 0 && n.Deps[0].Kind == rdd.DepNarrow; n = n.Deps[0].Parent {
		if n.Transfer != nil {
			st.Phases = append(st.Phases, phase{Top: n.Deps[0].Parent, Transfer: n.Transfer, TransferNode: n})
		}
	}
	slices.Reverse(st.Phases)
	st.Phases = append(st.Phases, phase{Top: output})
	st.Base = n
	for di := range n.Deps {
		d := &n.Deps[di]
		st.Parents = append(st.Parents, b.stageFor(d.Parent, d.Shuffle))
	}
	st.ID = b.nextID
	b.nextID++
	b.stages = append(b.stages, st)
	return st
}

// AutoAggregate rewrites the lineage reachable from target so that every
// shuffle is fed through a transferTo with automatic aggregator selection —
// the paper's implicit embedding (Fig. 5). Parents already wrapped in a
// transfer are left alone, as are shuffles whose input is a transfer
// already. Returns the number of transfers inserted.
func AutoAggregate(target *rdd.RDD) int {
	inserted := 0
	seen := map[int]bool{}
	var walk func(n *rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for di := range n.Deps {
			d := &n.Deps[di]
			if d.Kind == rdd.DepShuffle && d.Parent.Transfer == nil {
				d.Parent = d.Parent.TransferToAuto()
				inserted++
			}
			walk(d.Parent)
		}
	}
	walk(target)
	return inserted
}
