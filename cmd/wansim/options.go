package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/netobs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// options is every flag, parsed and validated once. Sim, live and -serve
// all run from this one value; nothing downstream re-checks a flag.
type options struct {
	workload   *workloads.Workload
	scheme     core.Scheme
	aggregator plan.AggregatorPolicy
	seed       int64
	scale      float64
	live       bool
	mode       livecluster.Mode // the scheme's live mechanism; set with -live

	// What a single run does with its result (-serve ignores these).
	gantt, matrix, validate bool
	chrome, report          string

	// Telemetry plane.
	telemetryAddr    string
	linger           time.Duration
	progress         bool
	logger           *slog.Logger
	timelineInterval time.Duration
	timelineCap      int

	// -live data, storage and network planes.
	heartbeat, staleAfter  time.Duration
	compress               string
	chunkRecords           int
	dialTimeout, ioTimeout time.Duration
	memoryBudget           int64
	spillDir               string
	topology               *topology.Topology

	// Job service.
	serve       bool
	weights     map[string]float64
	maxQueue    int
	queuedBytes int64
	jobDeadline time.Duration
}

// trace reports whether anything will read spans: the timeline flags, the
// report's tasks and critical_path sections, or the /trace endpoint.
func (o *options) trace() bool {
	return o.gantt || o.chrome != "" || o.report != "" || o.telemetryAddr != ""
}

// rawFlags holds the flag values that need more parsing than package flag
// does.
type rawFlags struct {
	workload, scheme, aggregator, logLevel          string
	memoryBudget, topology, tenants, maxQueuedBytes string
}

// newFlagSet registers every wansim flag. The usage strings here are the
// one description of each flag; README.md groups them by plane.
func newFlagSet(o *options, raw *rawFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
	fs.StringVar(&raw.workload, "workload", "wordcount", "wordcount | sort | terasort | pagerank | naivebayes")
	fs.StringVar(&raw.scheme, "scheme", "agg", "spark | centralized | agg | manual (-live runs spark as a fetch shuffle and agg as a push shuffle, and rejects the others)")
	fs.StringVar(&raw.aggregator, "aggregator", "best", "automatic aggregator rule for agg-scheme shuffles: best (largest input share) | bandwidth (smallest estimated transfer time over the measured, then configured, link matrix) | worst | random (sim only)")
	fs.Int64Var(&o.seed, "seed", 1, "run seed")
	fs.Float64Var(&o.scale, "scale", 1.0, "modeled-size multiplier vs Table I")
	fs.BoolVar(&o.gantt, "gantt", false, "print the per-host execution timeline")
	fs.StringVar(&o.chrome, "chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	fs.BoolVar(&o.matrix, "matrix", false, "print the traffic matrix (per region simulated; per worker live)")
	fs.StringVar(&o.report, "report", "", "write the canonical JSON run report (schema wanshuffle/run-report/v1) to this file")
	fs.BoolVar(&o.validate, "validate", false, "check the output against the in-memory reference")
	fs.BoolVar(&o.live, "live", false, "run on a real loopback TCP cluster instead of the simulator")
	fs.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve /metrics /report /events /trace /links /timeline and /debug/pprof/ on this address while the job runs, e.g. 127.0.0.1:9090 (empty disables)")
	fs.DurationVar(&o.linger, "telemetry-linger", 0, "keep the telemetry endpoint up this long after the run, so scrapers can read the final state")
	fs.BoolVar(&o.progress, "progress", false, "print a live stages/tasks/bytes progress line to stderr during the run")
	fs.StringVar(&raw.logLevel, "log-level", "warn", "structured log level on stderr: debug | info | warn | error | off")
	fs.DurationVar(&o.heartbeat, "heartbeat", 50*time.Millisecond, "-live worker heartbeat interval (must be positive)")
	fs.DurationVar(&o.staleAfter, "stale-after", time.Second, "-live heartbeat silence after which a worker counts as dead (must be positive and exceed -heartbeat)")
	fs.StringVar(&o.compress, "compress", "", "-live per-chunk compression codec: none | gzip | flate")
	fs.IntVar(&o.chunkRecords, "chunk-records", 256, "-live records per chunk frame (must be positive)")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", 0, "-live data-plane dial timeout (0 = 5s default, negative disables)")
	fs.DurationVar(&o.ioTimeout, "io-timeout", 0, "-live per-exchange I/O deadline; a hung peer fails the task attempt instead of wedging the run (0 = 30s default, negative disables)")
	fs.StringVar(&raw.memoryBudget, "memory-budget", "", "-live per-worker resident budget for stored shuffle blocks, e.g. 64KB or 16MiB; beyond it the coldest outputs spill to disk (empty = unlimited)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "-live directory for spilled shuffle blocks (empty = OS temp dir)")
	fs.StringVar(&raw.topology, "topology", "", "-live WAN preset pacing the loopback data plane at its inter-DC rates: ec2 | micro (empty = unshaped)")
	fs.DurationVar(&o.timelineInterval, "timeline-interval", netobs.DefaultInterval, "metrics timeline sampling period (must be positive)")
	fs.IntVar(&o.timelineCap, "timeline-cap", netobs.DefaultCap, "metrics timeline ring capacity in samples, oldest dropped first (must be positive)")
	fs.BoolVar(&o.serve, "serve", false, "run as a multi-tenant job service: workloads arrive as JSON over POST /jobs on -telemetry-addr (required) and run one at a time, weighted-fair across tenants")
	fs.StringVar(&raw.tenants, "tenants", "", "-serve tenant weights, e.g. heavy=3,light=1 (unlisted tenants weigh 1)")
	fs.IntVar(&o.maxQueue, "max-queue", 16, "-serve admission bound on queued jobs; submissions beyond it get HTTP 429 (must be positive)")
	fs.StringVar(&raw.maxQueuedBytes, "max-queued-bytes", "", "-serve admission bound on summed est_bytes of queued+running jobs, e.g. 256MB (empty = unbounded)")
	fs.DurationVar(&o.jobDeadline, "job-deadline", 0, "-serve default per-job deadline (0 = none; a request's deadline_ms overrides)")
	return fs
}

// singleRunFlags are the flags only a single run reads; -serve warns when
// one is set, since jobs name their own workload and reports are retained
// per job.
var singleRunFlags = map[string]bool{
	"workload": true, "gantt": true, "chrome": true, "matrix": true,
	"report": true, "validate": true, "progress": true,
}

// parseOptions parses and validates args. A value with no meaningful
// interpretation (a zero chunk size, a staleness bound below the beat
// interval, a scheme the chosen backend cannot run) fails here, before
// anything is built; a flag that is merely without effect in the chosen
// mode draws a warning on stderr.
func parseOptions(args []string, stderr io.Writer) (*options, error) {
	o, raw := &options{}, &rawFlags{}
	fs := newFlagSet(o, raw)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if o.workload, err = workloads.ByName(raw.workload); err != nil {
		return nil, err
	}
	schemes := map[string]core.Scheme{
		"spark": core.SchemeSpark, "centralized": core.SchemeCentralized,
		"agg": core.SchemeAggShuffle, "manual": core.SchemeManual,
	}
	if o.scheme = schemes[strings.ToLower(raw.scheme)]; o.scheme == 0 {
		return nil, fmt.Errorf("unknown scheme %q", raw.scheme)
	}
	if o.aggregator, err = plan.ParseAggregatorPolicy(raw.aggregator); err != nil {
		return nil, fmt.Errorf("-aggregator: %w", err)
	}
	if o.live {
		if o.mode, err = modeForScheme(o.scheme); err != nil {
			return nil, err
		}
		if o.aggregator == plan.AggregatorRandom {
			return nil, fmt.Errorf("-aggregator random is not supported with -live (the live path carries no seeded RNG)")
		}
	}
	if o.logger, err = buildLogger(raw.logLevel, stderr); err != nil {
		return nil, err
	}

	for _, c := range []struct {
		name string
		v    int
	}{{"-chunk-records", o.chunkRecords}, {"-timeline-cap", o.timelineCap}, {"-max-queue", o.maxQueue}} {
		if c.v <= 0 {
			return nil, fmt.Errorf("%s must be positive, got %d", c.name, c.v)
		}
	}
	if o.memoryBudget, err = parseByteSize("-memory-budget", raw.memoryBudget); err != nil {
		return nil, err
	}
	if o.topology, err = topologyByName(raw.topology); err != nil {
		return nil, err
	}
	if o.heartbeat <= 0 {
		return nil, fmt.Errorf("-heartbeat must be positive, got %v", o.heartbeat)
	}
	if o.staleAfter <= 0 {
		return nil, fmt.Errorf("-stale-after must be positive, got %v", o.staleAfter)
	}
	if o.staleAfter <= o.heartbeat {
		return nil, fmt.Errorf("-stale-after (%v) must exceed -heartbeat (%v): workers would look dead between beats", o.staleAfter, o.heartbeat)
	}
	if o.linger < 0 {
		return nil, fmt.Errorf("-telemetry-linger must not be negative, got %v", o.linger)
	}
	if o.timelineInterval <= 0 {
		return nil, fmt.Errorf("-timeline-interval must be positive, got %v", o.timelineInterval)
	}
	if o.weights, err = parseTenantWeights(raw.tenants); err != nil {
		return nil, err
	}
	if o.queuedBytes, err = parseByteSize("-max-queued-bytes", raw.maxQueuedBytes); err != nil {
		return nil, err
	}
	if o.jobDeadline < 0 {
		return nil, fmt.Errorf("-job-deadline must not be negative, got %v", o.jobDeadline)
	}
	if o.serve && o.telemetryAddr == "" {
		return nil, fmt.Errorf("-serve requires -telemetry-addr: submissions arrive over HTTP")
	}

	if !o.serve && raw.tenants != "" {
		fmt.Fprintf(stderr, "wansim: warning: -tenants %q has no effect without -serve\n", raw.tenants)
	}
	if o.linger > 0 && o.telemetryAddr == "" {
		fmt.Fprintf(stderr, "wansim: warning: -telemetry-linger %v has no effect without -telemetry-addr\n", o.linger)
	}
	if o.serve {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if singleRunFlags[f.Name] {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(stderr, "wansim: warning: %s has no effect with -serve (each job names its workload; its report is at /jobs/{id}/report)\n", strings.Join(ignored, ", "))
		}
	}
	return o, nil
}

// modeForScheme maps a shuffle scheme to its live mechanism: spark is the
// fetch-based shuffle, agg is Push/Aggregate with per-shuffle measured-size
// aggregator selection.
func modeForScheme(sch core.Scheme) (livecluster.Mode, error) {
	switch sch {
	case core.SchemeSpark:
		return livecluster.ModeFetch, nil
	case core.SchemeAggShuffle:
		return livecluster.ModePush, nil
	default:
		return 0, fmt.Errorf("-live supports schemes spark and agg, not %v", sch)
	}
}

// buildLogger maps the -log-level flag to a text logger on stderr; "off"
// yields nil (discard).
func buildLogger(level string, stderr io.Writer) (*slog.Logger, error) {
	if level == "" || strings.EqualFold(level, "off") || strings.EqualFold(level, "none") {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown log level %q (debug | info | warn | error | off)", level)
	}
	return slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// topologyByName maps the -topology flag to a WAN preset shaping the live
// data plane; empty means unshaped loopback.
func topologyByName(name string) (*topology.Topology, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "ec2":
		return topology.SixRegionEC2(), nil
	case "micro":
		return topology.TwoDCMicro(0, 0), nil
	default:
		return nil, fmt.Errorf("unknown -topology %q (ec2 | micro)", name)
	}
}

// parseByteSize parses a byte-size flag value: a positive integer with an
// optional binary (KiB/MiB/GiB) or decimal (KB/MB/GB, or bare K/M/G)
// suffix; empty means unbounded (zero).
func parseByteSize(flagName, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	suffixes := []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9},
		{"K", 1e3}, {"M", 1e6}, {"G", 1e9}, {"B", 1},
	}
	num, mult := s, int64(1)
	for _, sf := range suffixes {
		if len(s) > len(sf.suffix) && strings.EqualFold(s[len(s)-len(sf.suffix):], sf.suffix) {
			num, mult = strings.TrimSpace(s[:len(s)-len(sf.suffix)]), sf.mult
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: cannot parse %q (want e.g. 65536, 64KB, or 16MiB)", flagName, s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("%s must be positive, got %q", flagName, s)
	}
	budget := n * mult
	if budget/mult != n {
		return 0, fmt.Errorf("%s %q overflows", flagName, s)
	}
	return budget, nil
}

// parseTenantWeights parses the -tenants flag: comma-separated
// name=weight pairs with strictly positive weights. Empty means every
// tenant gets the default weight.
func parseTenantWeights(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-tenants: %q is not name=weight", strings.TrimSpace(part))
		}
		name = strings.TrimSpace(name)
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || name == "" || !(w > 0) {
			return nil, fmt.Errorf("-tenants: %q needs a tenant name and a positive weight", strings.TrimSpace(part))
		}
		if _, dup := weights[name]; dup {
			return nil, fmt.Errorf("-tenants: tenant %q listed twice", name)
		}
		weights[name] = w
	}
	return weights, nil
}
