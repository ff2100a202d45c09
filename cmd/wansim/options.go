package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// options is every flag, parsed and validated once. Sim and live runs both
// run from this one value; nothing downstream re-checks a flag.
type options struct {
	workload   *workloads.Workload
	scheme     core.Scheme
	aggregator plan.AggregatorPolicy
	seed       int64
	scale      float64
	live       bool

	// What the run does with its result.
	gantt, matrix, validate bool
	chrome, report          string

	// Telemetry plane.
	telemetryAddr string
	linger        time.Duration

	// -live data, storage and network planes.
	compress               string
	chunkRecords           int
	dialTimeout, ioTimeout time.Duration
	memoryBudget           int64
	spillDir               string
	topology               *topology.Topology
}

// trace reports whether anything will read spans: the timeline flags, the
// report's tasks and critical_path sections, or the /trace endpoint.
func (o *options) trace() bool {
	return o.gantt || o.chrome != "" || o.report != "" || o.telemetryAddr != ""
}

// rawFlags holds the flag values that need more parsing than package flag
// does.
type rawFlags struct {
	workload, scheme, aggregator, memoryBudget, topology string
}

// newFlagSet registers every wansim flag. The usage strings here are the
// one description of each flag; README.md groups them by plane.
func newFlagSet(o *options, raw *rawFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("wansim", flag.ContinueOnError)
	fs.StringVar(&raw.workload, "workload", "wordcount", "wordcount | sort | terasort | pagerank | naivebayes")
	fs.StringVar(&raw.scheme, "scheme", "agg", "spark | centralized | agg | manual (agg puts a transferTo before every shuffle, on either backend; -live rejects centralized and manual)")
	fs.StringVar(&raw.aggregator, "aggregator", "best", "automatic aggregator rule for agg-scheme shuffles: best (largest input share) | bandwidth (smallest estimated transfer time over the measured, then configured, link matrix) | worst | random (sim only)")
	fs.Int64Var(&o.seed, "seed", 1, "run seed")
	fs.Float64Var(&o.scale, "scale", 1.0, "modeled-size multiplier vs Table I")
	fs.BoolVar(&o.gantt, "gantt", false, "print the per-host execution timeline")
	fs.StringVar(&o.chrome, "chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	fs.BoolVar(&o.matrix, "matrix", false, "print the traffic matrix (per region simulated; per worker live)")
	fs.StringVar(&o.report, "report", "", "write the canonical JSON run report (schema wanshuffle/run-report/v1) to this file")
	fs.BoolVar(&o.validate, "validate", false, "check the output against the in-memory reference")
	fs.BoolVar(&o.live, "live", false, "run on a real loopback TCP cluster instead of the simulator")
	fs.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve /metrics /report /events /trace and /debug/pprof/ on this address while the job runs, e.g. 127.0.0.1:9090 (empty disables)")
	fs.DurationVar(&o.linger, "telemetry-linger", 0, "keep the telemetry endpoint up this long after the run, so scrapers can read the final state")
	fs.StringVar(&o.compress, "compress", "", "-live per-chunk compression codec: none | gzip | flate")
	fs.IntVar(&o.chunkRecords, "chunk-records", 256, "-live records per chunk frame (must be positive)")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", 0, "-live data-plane dial timeout (0 = 5s default, negative disables)")
	fs.DurationVar(&o.ioTimeout, "io-timeout", 0, "-live per-exchange I/O deadline; a hung peer fails the task attempt instead of wedging the run (0 = 30s default, negative disables)")
	fs.StringVar(&raw.memoryBudget, "memory-budget", "", "-live per-worker resident budget for stored shuffle blocks, e.g. 64KB or 16MiB; beyond it the coldest outputs spill to disk (empty = unlimited)")
	fs.StringVar(&o.spillDir, "spill-dir", "", "-live directory for spilled shuffle blocks (empty = OS temp dir)")
	fs.StringVar(&raw.topology, "topology", "", "-live WAN preset pacing the loopback data plane at its inter-DC rates: ec2 | micro (empty = unshaped)")
	return fs
}

// liveOnlyFlags are the flags only the live cluster reads; a run without
// -live warns when one is set, since the simulator models bytes, links and
// storage itself.
var liveOnlyFlags = map[string]bool{
	"compress": true, "chunk-records": true, "dial-timeout": true, "io-timeout": true,
	"memory-budget": true, "spill-dir": true, "topology": true,
}

// parseOptions parses and validates args. A value with no meaningful
// interpretation (a zero scale or chunk size, an unknown topology, a scheme the
// chosen backend cannot run) fails here, before
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
		if o.scheme != core.SchemeSpark && o.scheme != core.SchemeAggShuffle {
			return nil, fmt.Errorf("-live supports schemes spark and agg, not %v", o.scheme)
		}
		if o.aggregator == plan.AggregatorRandom {
			return nil, fmt.Errorf("-aggregator random is not supported with -live (the live path carries no seeded RNG)")
		}
	}

	if o.chunkRecords <= 0 {
		return nil, fmt.Errorf("-chunk-records must be positive, got %d", o.chunkRecords)
	}
	if o.memoryBudget, err = parseByteSize("-memory-budget", raw.memoryBudget); err != nil {
		return nil, err
	}
	if o.topology, err = topologyByName(raw.topology); err != nil {
		return nil, err
	}
	if !(o.scale > 0) || math.IsInf(o.scale, 1) {
		return nil, fmt.Errorf("-scale must be positive and finite, got %v", o.scale)
	}
	if o.linger < 0 {
		return nil, fmt.Errorf("-telemetry-linger must not be negative, got %v", o.linger)
	}

	if o.linger > 0 && o.telemetryAddr == "" {
		fmt.Fprintf(stderr, "wansim: warning: -telemetry-linger %v has no effect without -telemetry-addr\n", o.linger)
	}
	if !o.live {
		warnSet(fs, stderr, liveOnlyFlags, "has no effect without -live (the simulator models the data plane and its WAN itself)")
	}
	return o, nil
}

// warnSet prints one warning line naming every flag in set the command
// line gave.
func warnSet(fs *flag.FlagSet, stderr io.Writer, set map[string]bool, why string) {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if set[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		fmt.Fprintf(stderr, "wansim: warning: %s %s\n", strings.Join(ignored, ", "), why)
	}
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
		return topology.TwoDCMicro(), nil
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
