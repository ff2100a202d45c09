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

// backend is the one seam between the run paths and an execution
// substrate: one job's worth of either the simulator or the live cluster.
// runOnce and runServe build a workload on lineage, call run, and read the
// mid-run sources; neither knows which substrate is behind the value.
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
	registry func() *obs.Registry
	snapshot func(workload string) *obs.Report
	events   func() *obs.Collector
	links    func() *obs.NetworkStats
}

// openBackend returns the per-job backend constructor for o's mode, plus
// the release of whatever the constructor shares across jobs. The
// simulator builds a fresh engine per job (a canceled simulation cannot be
// resumed); the live cluster is built once and shared, so its link
// estimator keeps learning across a service's jobs.
func openBackend(o *options) (open func(seed int64) *backend, release func(), err error) {
	if !o.live {
		return func(seed int64) *backend { return newSimBackend(o, seed) }, func() {}, nil
	}
	return openLiveBackend(o)
}

func newSimBackend(o *options, seed int64) *backend {
	cctx := core.NewContext(core.Config{
		Seed: seed, Scheme: o.scheme,
		Exec: exec.Config{Trace: o.trace(), AggregatorPolicy: o.aggregator, Logger: o.logger},
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
		tracer:   eng.Tracer,
		topo:     cctx.Topology(),
		registry: eng.Events.Registry,
		// Until the run finishes the engine's event collector is all there
		// is to report from.
		snapshot: func(workload string) *obs.Report {
			return obs.InProgressReport("sim", workload, o.scheme.String(), eng.Events)
		},
		events: func() *obs.Collector { return eng.Events },
		links:  eng.NetworkStats,
	}
}

func openLiveBackend(o *options) (func(seed int64) *backend, func(), error) {
	var tracer *trace.Recorder
	if o.trace() {
		tracer = &trace.Recorder{}
	}
	cluster, err := livecluster.New(livecluster.Config{
		Workers: 6, Mode: o.mode, Trace: tracer,
		AggregatorPolicy:  o.aggregator,
		HeartbeatInterval: o.heartbeat, StaleAfter: o.staleAfter,
		Compression: o.compress, ChunkRecords: o.chunkRecords,
		DialTimeout: o.dialTimeout, IOTimeout: o.ioTimeout,
		MemoryBudget: o.memoryBudget, SpillDir: o.spillDir,
		WANTopology: o.topology,
		Logger:      o.logger,
	})
	if err != nil {
		return nil, nil, err
	}
	// Mid-run sources read the running job's stats: the registry fed by
	// worker heartbeats, and a snapshot built by the same RunReport code
	// path as the final report, so its traffic matrix always sums to the
	// bytes moved so far.
	shared := backend{
		run: func(ctx context.Context, workload string, target *rdd.RDD) ([]rdd.Pair, *obs.Report, error) {
			out, stats, err := cluster.RunContext(ctx, target)
			if err != nil {
				return nil, nil, err
			}
			return out, stats.RunReport(workload, tracer), nil
		},
		tracer: tracer,
		topo:   cluster.Topology(),
		registry: func() *obs.Registry {
			cluster.RefreshLiveness() // scrapes see current heartbeat ages
			if s := cluster.CurrentStats(); s != nil {
				return s.Events.Registry()
			}
			return nil
		},
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
		links: cluster.NetworkStats,
	}
	open := func(seed int64) *backend {
		// The recorder outlives a job; jobs run one at a time, so clearing
		// it here keeps each report to its own job's spans and a long-lived
		// service's memory flat.
		tracer.Reset()
		b := shared
		// This context only constructs the workload's RDD graph; execution
		// happens on the cluster.
		b.lineage = core.NewContext(core.Config{Seed: seed, Scheme: o.scheme})
		return &b
	}
	return open, cluster.Close, nil
}
