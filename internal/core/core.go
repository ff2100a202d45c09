// Package core is the top-level engine facade: a Spark-like Context that
// owns a lineage graph and a simulated geo-distributed cluster, runs jobs
// under one of the paper's three schemes, and reports job metrics.
//
// Schemes (Sec. V-A "Baselines"):
//
//   - SchemeSpark: stock wide-area Spark. Shuffle input stays on the
//     mappers and reducers fetch it across datacenters.
//   - SchemeCentralized: all raw input is shipped to a single datacenter
//     before the job runs; everything is local afterwards.
//   - SchemeAggShuffle: the paper's contribution. transferTo() is embedded
//     automatically before every shuffle (the spark.shuffle.aggregation
//     option), pushing map output to the aggregator datacenter as soon as
//     it is produced.
//   - SchemeManual: like SchemeSpark, but the application's own explicit
//     transferTo() calls are honored (Sec. IV-E, "Implicit vs. Explicit
//     Embedding").
package core

import (
	"context"
	"fmt"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// Scheme selects the wide-area shuffle strategy for a Context.
type Scheme int

// Schemes.
const (
	SchemeSpark Scheme = iota + 1
	SchemeCentralized
	SchemeAggShuffle
	SchemeManual
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeSpark:
		return "Spark"
	case SchemeCentralized:
		return "Centralized"
	case SchemeAggShuffle:
		return "AggShuffle"
	case SchemeManual:
		return "Manual"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config configures a Context.
type Config struct {
	// Topology defaults to the paper's six-region EC2 cluster.
	Topology *topology.Topology
	// Seed drives all randomness (bandwidth jitter, compute noise,
	// failure injection). Identical seeds give identical runs.
	Seed int64
	// Scheme defaults to SchemeSpark.
	Scheme Scheme
	// Exec exposes the execution model knobs.
	Exec exec.Config
}

// Context owns one lineage graph and one simulated cluster.
type Context struct {
	cfg Config
	g   *rdd.Graph
	eng *exec.Engine
}

// NewContext builds a Context. The zero Config gives the paper's cluster —
// including its fluctuating WAN bandwidth (jitter amplitude 0.25; pass a
// negative amplitude for idealized stable links) — under SchemeSpark.
func NewContext(cfg Config) *Context {
	if cfg.Topology == nil {
		cfg.Topology = topology.SixRegionEC2()
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = SchemeSpark
	}
	if cfg.Exec.Net.JitterAmplitude == 0 {
		cfg.Exec.Net.JitterAmplitude = 0.25
	} else if cfg.Exec.Net.JitterAmplitude < 0 {
		cfg.Exec.Net.JitterAmplitude = 0
	}
	return &Context{
		cfg: cfg,
		g:   rdd.NewGraph(),
		eng: exec.New(cfg.Topology, cfg.Seed, cfg.Exec),
	}
}

// Topology returns the cluster layout.
func (c *Context) Topology() *topology.Topology { return c.cfg.Topology }

// Scheme returns the active scheme.
func (c *Context) Scheme() Scheme { return c.cfg.Scheme }

// Graph returns the lineage graph for advanced construction.
func (c *Context) Graph() *rdd.Graph { return c.g }

// Engine exposes the underlying executor (for tracing and tests).
func (c *Context) Engine() *exec.Engine { return c.eng }

// Input creates a leaf dataset from explicitly placed partitions.
func (c *Context) Input(name string, parts []rdd.InputPartition) *rdd.RDD {
	return c.g.Input(name, parts)
}

// DistributeRecords spreads records over numParts partitions across every
// datacenter — the "raw data generated at geographically distributed
// datacenters" setting of the paper — with the driver's datacenter holding
// the largest share (~1/3): HiBench generates input through the cluster
// master, and HDFS places the first replica writer-local, so the
// master's region accumulates disproportionally many blocks.
// totalModeledBytes is divided equally among partitions.
func (c *Context) DistributeRecords(name string, records []rdd.Pair, numParts int, totalModeledBytes float64) *rdd.RDD {
	if numParts <= 0 {
		panic("core: numParts must be positive")
	}
	topo := c.cfg.Topology
	driverHosts := topo.HostsIn(topo.DriverDC)
	var otherHosts []topology.HostID
	for _, h := range topo.Workers() {
		if topo.DCOf(h) != topo.DriverDC {
			otherHosts = append(otherHosts, h)
		}
	}
	driverParts := numParts / 3
	parts := make([]rdd.InputPartition, numParts)
	for i := range parts {
		var host topology.HostID
		if i < driverParts || len(otherHosts) == 0 {
			host = driverHosts[i%len(driverHosts)]
		} else {
			j := i - driverParts
			n := numParts - driverParts
			host = otherHosts[j*len(otherHosts)/n%len(otherHosts)]
		}
		parts[i] = rdd.InputPartition{
			Host:         host,
			ModeledBytes: totalModeledBytes / float64(numParts),
		}
	}
	// Record i goes to partition i mod numParts, so partition p holds
	// every numParts-th record from p on.
	for p := range parts {
		recs := make([]rdd.Pair, 0, (len(records)-p+numParts-1)/numParts)
		for i := p; i < len(records); i += numParts {
			recs = append(recs, records[i])
		}
		parts[p].Records = recs
	}
	return c.g.Input(name, parts)
}

// Report describes one job run under a scheme.
type Report struct {
	Scheme Scheme
	*exec.Result
	eng  *exec.Engine
	seed int64
	// aggPolicy labels the run's aggregator policy for the report's
	// placement section.
	aggPolicy string
}

// Gantt renders the job timeline when tracing was enabled.
func (r *Report) Gantt(width int) string {
	if r.eng.Tracer == nil {
		return "(tracing disabled; set Config.Exec.Trace)\n"
	}
	return r.eng.Tracer.Gantt(r.eng.Topo, width)
}

// Spans returns the recorded trace spans (empty without tracing).
func (r *Report) Spans() []trace.Span { return r.eng.Tracer.Spans() }

// Collect runs the job materializing target and returns all records plus
// the run report.
func (c *Context) Collect(target *rdd.RDD) (*Report, error) {
	return c.run(target, exec.ActionCollect)
}

// Count runs the job and returns per-partition record counts in the
// report.
func (c *Context) Count(target *rdd.RDD) (*Report, error) {
	return c.run(target, exec.ActionCount)
}

// Save runs the job writing output to node-local storage (HDFS-style, as
// the HiBench benchmarks do): no result bytes cross the network beyond a
// completion ack, but the records are still returned for validation.
func (c *Context) Save(target *rdd.RDD) (*Report, error) {
	return c.run(target, exec.ActionSave)
}

// SaveContext is Save under cooperative cancellation: the engine's event
// loop aborts with an error wrapping ctx.Err() once ctx fires. A canceled
// Context is left mid-simulation and should be discarded; build a fresh
// one for the next job.
func (c *Context) SaveContext(ctx context.Context, target *rdd.RDD) (*Report, error) {
	return c.runContext(ctx, target, exec.ActionSave)
}

// RunConcurrently launches all targets at the same instant on the shared
// cluster (ActionSave each) — the multi-tenant setting of the paper's
// Sec. IV-E discussion. Jobs contend for slots and links; traffic counters
// in each report are cluster-wide deltas over the job's lifetime.
func (c *Context) RunConcurrently(targets []*rdd.RDD) ([]*Report, error) {
	specs := make([]exec.JobSpec, len(targets))
	for i, target := range targets {
		spec, err := c.jobSpec(target, exec.ActionSave)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	results, err := c.eng.RunManyContext(context.Background(), specs)
	if err != nil {
		return nil, fmt.Errorf("core: %v concurrent jobs failed: %w", c.cfg.Scheme, err)
	}
	reports := make([]*Report, len(results))
	for i, res := range results {
		reports[i] = c.report(res)
	}
	return reports, nil
}

func (c *Context) run(target *rdd.RDD, action exec.Action) (*Report, error) {
	return c.runContext(context.Background(), target, action)
}

func (c *Context) runContext(ctx context.Context, target *rdd.RDD, action exec.Action) (*Report, error) {
	spec, err := c.jobSpec(target, action)
	if err != nil {
		return nil, err
	}
	results, err := c.eng.RunManyContext(ctx, []exec.JobSpec{spec})
	if err != nil {
		return nil, fmt.Errorf("core: %v job failed: %w", c.cfg.Scheme, err)
	}
	return c.report(results[0]), nil
}

// jobSpec is the one place the scheme says what it does to a simulated job:
// AggShuffle embeds a transferTo before every shuffle (Embed), Centralized
// ships the inputs to one datacenter first, Spark and Manual run the lineage
// as written (Manual keeps its explicit transfers). Any other is an error.
func (c *Context) jobSpec(target *rdd.RDD, action exec.Action) (exec.JobSpec, error) {
	spec := exec.JobSpec{Target: target, Action: action}
	c.Embed(target)
	switch c.cfg.Scheme {
	case SchemeCentralized:
		spec.Opts.Centralize = true
	case SchemeSpark, SchemeManual, SchemeAggShuffle:
	default:
		return exec.JobSpec{}, fmt.Errorf("core: unknown scheme %v", c.cfg.Scheme)
	}
	return spec, nil
}

// Embed is the scheme's one edit to a job's lineage, on either backend: under
// SchemeAggShuffle a transferTo with automatic aggregator selection before
// every shuffle (dag.AutoAggregate, idempotent); under the others, none.
func (c *Context) Embed(target *rdd.RDD) {
	if c.cfg.Scheme == SchemeAggShuffle {
		dag.AutoAggregate(target)
	}
}

// report wraps one finished job's result with what the context knows.
func (c *Context) report(res *exec.Result) *Report {
	return &Report{
		Scheme: c.cfg.Scheme, Result: res, eng: c.eng,
		seed: c.cfg.Seed, aggPolicy: c.cfg.Exec.AggregatorPolicy.String(),
	}
}

// RunReport assembles the canonical machine-readable run report
// (obs.SchemaVersion) for this job: the same schema the live cluster
// emits, so runs from either backend can be diffed mechanically.
// Task-duration summaries require tracing (Config.Exec.Trace); without it
// the tasks section is empty. Tasks, critical path and placement cover
// every job the engine ran: every caller runs one job per Context.
func (r *Report) RunReport(workload string) *obs.Report {
	names := r.eng.Topo.DCNames()
	matrix := make([][]float64, len(r.PairBytes))
	for i := range r.PairBytes {
		matrix[i] = append([]float64(nil), r.PairBytes[i]...)
	}
	return &obs.Report{
		Schema:         obs.SchemaVersion,
		Backend:        "sim",
		Workload:       workload,
		Scheme:         r.Scheme.String(),
		Seed:           r.seed,
		Sites:          names,
		CompletionSec:  r.JCT,
		Stages:         r.Stages,
		TrafficByClass: r.CrossDCByTag,
		MatrixLabels:   names,
		TrafficMatrix:  matrix,
		Tasks:          obs.TaskSummaries(r.Spans(), obs.StageNames(r.Stages)),
		TaskAttempts:   r.TaskAttempts,
		Retries:        r.Retries,
		BytesTotal:     r.CrossDCBytes,
		CriticalPath:   trace.AnalyzeCriticalPath(r.Spans(), r.eng.Topo),
		Network:        r.eng.NetworkStats(),
		Placement:      obs.PlacementSection(r.aggPolicy, r.eng.Events.Placements()),
	}
}
