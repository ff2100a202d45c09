package main

import (
	"context"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// backend is the one seam between the run path and an execution
// substrate: one job's worth of either the simulator or the live cluster.
// runOnce builds a workload on lineage, calls run, and reads the mid-run
// sources; it does not know which substrate is behind the value.
type backend struct {
	// lineage is where the job's workload builds its RDD graph (the sim
	// backend also executes on it).
	lineage *core.Context
	// run executes the job materializing target and returns its records
	// with the final canonical report.
	run func(ctx context.Context, workload string, target *rdd.RDD) ([]rdd.Pair, *obs.Report, error)

	// tracer holds the job's spans (nil when nothing will read them) and
	// topo the hosts they render against.
	tracer *trace.Recorder
	topo   *topology.Topology

	// Mid-run sources, safe to call from telemetry handlers while run
	// executes. A nil result means "no state yet" (the endpoint answers 503).
	snapshot func(workload string) *obs.Report
	events   func() *obs.Collector
}

// openBackend returns the backend for o's mode, plus the release of what
// it holds open (the live cluster).
func openBackend(o *options) (b *backend, release func(), err error) {
	if !o.live {
		return newSimBackend(o), func() {}, nil
	}
	return openLiveBackend(o)
}

func newSimBackend(o *options) *backend {
	cctx := core.NewContext(core.Config{
		Seed: o.seed, Scheme: o.scheme,
		Exec: exec.Config{Trace: o.trace(), AggregatorPolicy: o.aggregator},
	})
	eng := cctx.Engine()
	return &backend{
		lineage: cctx,
		run: func(ctx context.Context, workload string, target *rdd.RDD) ([]rdd.Pair, *obs.Report, error) {
			rep, err := cctx.SaveContext(ctx, target)
			if err != nil {
				return nil, nil, err
			}
			return rep.Records, rep.RunReport(workload), nil
		},
		tracer: eng.Tracer,
		topo:   cctx.Topology(),
		// Until the run finishes the engine's event collector and link
		// estimator are all there is to report from.
		snapshot: func(workload string) *obs.Report {
			rep := obs.InProgressReport("sim", workload, o.scheme.String(), eng.Events)
			rep.Network = eng.NetworkStats()
			rep.Placement = obs.PlacementSection(o.aggregator.String(), eng.Events.Placements())
			return rep
		},
		events: func() *obs.Collector { return eng.Events },
	}
}

func openLiveBackend(o *options) (*backend, func(), error) {
	var tracer *trace.Recorder
	if o.trace() {
		tracer = &trace.Recorder{}
	}
	cluster, err := livecluster.New(livecluster.Config{
		Workers: 6, Trace: tracer, AggregatorPolicy: o.aggregator,
		Compression: o.compress, ChunkRecords: o.chunkRecords,
		DialTimeout: o.dialTimeout, IOTimeout: o.ioTimeout,
		MemoryBudget: o.memoryBudget, SpillDir: o.spillDir,
		WANTopology: o.topology,
	})
	if err != nil {
		return nil, nil, err
	}
	// This context only builds the workload's RDD graph and applies the
	// scheme's rewrite to it; execution happens on the cluster.
	lineage := core.NewContext(core.Config{Seed: o.seed, Scheme: o.scheme})
	// Mid-run sources read the running job's stats: a snapshot built by the
	// same RunReport code path as the final report, so its traffic matrix
	// always sums to the bytes moved so far.
	b := &backend{
		lineage: lineage,
		run: func(ctx context.Context, workload string, target *rdd.RDD) ([]rdd.Pair, *obs.Report, error) {
			lineage.Embed(target)
			out, stats, err := cluster.RunContext(ctx, target)
			if err != nil {
				return nil, nil, err
			}
			return out, stats.RunReport(workload, tracer), nil
		},
		tracer: tracer,
		topo:   cluster.Topology(),
		snapshot: func(workload string) *obs.Report {
			if s := cluster.CurrentStats(); s != nil {
				return s.RunReport(workload, tracer)
			}
			return nil
		},
		events: func() *obs.Collector {
			if s := cluster.CurrentStats(); s != nil {
				return s.Events
			}
			return nil
		},
	}
	return b, cluster.Close, nil
}
