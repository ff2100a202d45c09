// Command wanbench regenerates every table and figure of "Optimizing
// Shuffle in Wide-Area Data Analytics" (ICDCS 2017) on the simulated
// six-region cluster.
//
// Usage:
//
//	wanbench [flags] <experiment>
//
// Run it without arguments for the experiments and flags; both lists are
// printed from the tables below (experiments, and the flag set in run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"wanshuffle/internal/bench"
	"wanshuffle/internal/core"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wanbench:", err)
		os.Exit(1)
	}
}

// session is one invocation: its options, and the paper's sweep (the five
// workloads under the three schemes), which several experiments render and
// `all` must simulate only once.
type session struct {
	opts       bench.Options
	reportFile string
	paperSweep func() ([]bench.Series, error)
}

// rendered is an experiment that formats what run returns.
func rendered[T any](run func(*session) (T, error), format func(T) string) func(*session) (string, error) {
	return func(s *session) (string, error) {
		res, err := run(s)
		if err != nil {
			return "", err
		}
		return format(res), nil
	}
}

// figure is one view of the paper's sweep.
func figure(format func([]bench.Series) string) func(*session) (string, error) {
	return rendered(func(s *session) ([]bench.Series, error) { return s.paperSweep() }, format)
}

// fetchVsPush renders one of the micro-scenario's fetch-against-push
// comparisons at the base seed.
func fetchVsPush[T any](run func(seed int64) (T, T, error), format func(fetch, push T) string) func(*session) (string, error) {
	return func(s *session) (string, error) {
		fetch, push, err := run(s.opts.BaseSeed)
		if err != nil {
			return "", err
		}
		return format(fetch, push), nil
	}
}

// experiment is one thing wanbench regenerates. The usage text, the
// dispatch and `all` are all read from the experiments table.
type experiment struct {
	name, doc string
	// run produces the experiment's output.
	run func(*session) (string, error)
	// notInAll excludes the experiment from `all` (it writes a file).
	notInAll bool
}

var experiments = []experiment{
	{name: "table1", doc: "workload specifications (Table I)",
		run: func(*session) (string, error) { return bench.FormatTableI(), nil }},
	{name: "topology", doc: "evaluation cluster (Fig. 6)",
		run: func(*session) (string, error) { return bench.FormatTopology(topology.SixRegionEC2()), nil }},
	{name: "fig1", doc: "fetch vs push timeline (Fig. 1)", run: fetchVsPush(bench.Fig1, bench.FormatFig1)},
	{name: "fig2", doc: "reducer-failure recovery (Fig. 2)", run: fetchVsPush(bench.Fig2, bench.FormatFig2)},
	{name: "fig7", doc: "job completion times, all workloads × schemes (Fig. 7)", run: figure(bench.FormatFig7)},
	{name: "fig8", doc: "cross-datacenter traffic (Fig. 8)", run: figure(bench.FormatFig8)},
	{name: "fig9", doc: "stage execution breakdown (Fig. 9)", run: figure(bench.FormatFig9)},
	{name: "terasort-explicit", doc: "Sec. V-B: explicit transferTo for TeraSort", run: teraSortExplicit},
	{name: "ablate", doc: "design-choice ablations (pipelining, aggregator rule, top-K, burst model β, multi-tenancy, node failure, jitter)", run: rendered(func(s *session) ([]bench.AblationRow, error) { return bench.Ablate(s.opts) }, bench.FormatAblation)},
	{name: "extensions", doc: "workloads beyond the paper's five (WebJoin)", run: extensions},
	{name: "report", doc: "canonical JSON run reports (" + obs.SchemaVersion + ") for every workload × scheme, written to the -report file", run: report, notInAll: true},
}

func run(args []string, stdout io.Writer) error {
	s, picked, err := parse(args)
	if err != nil {
		return err
	}
	for _, e := range picked {
		out, err := e.run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprint(stdout, out)
		if len(picked) > 1 { // all: a blank line after each experiment
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// parse builds the session args describe and picks the experiments it
// runs: the one named, or under `all` every one that prints to stdout, in
// table order.
func parse(args []string) (*session, []experiment, error) {
	fs := flag.NewFlagSet("wanbench", flag.ContinueOnError)
	var s session
	fs.IntVar(&s.opts.Runs, "runs", 10, "iterations per (workload, scheme)")
	fs.Int64Var(&s.opts.BaseSeed, "seed", 1, "base seed")
	fs.Float64Var(&s.opts.Scale, "scale", 1.0, "modeled-size multiplier vs Table I")
	fs.Float64Var(&s.opts.Jitter, "jitter", 0.25, "WAN bandwidth jitter amplitude (0 disables)")
	fs.StringVar(&s.reportFile, "report", "run-reports.json", "output file for the report experiment")
	fs.BoolVar(&s.opts.Validate, "validate", false, "validate every run's records against the reference")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: wanbench [flags] <experiment>\n\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(fs.Output(), "  %-18s %s\n", e.name, e.doc)
		}
		fmt.Fprintf(fs.Output(), "  %-18s everything above that prints to stdout\n\nflags:\n", "all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if s.opts.Runs < 1 {
		return nil, nil, fmt.Errorf("-runs must be at least 1, got %d", s.opts.Runs)
	}
	if !(s.opts.Scale > 0) || math.IsInf(s.opts.Scale, 1) {
		return nil, nil, fmt.Errorf("-scale must be positive and finite, got %v", s.opts.Scale)
	}
	if !(s.opts.Jitter >= 0) || math.IsInf(s.opts.Jitter, 1) {
		return nil, nil, fmt.Errorf("-jitter must be finite and not negative, got %v", s.opts.Jitter)
	}
	if s.opts.Jitter == 0 {
		s.opts.Jitter = -1 // core reads 0 as its default amplitude
	}
	s.paperSweep = sync.OnceValues(func() ([]bench.Series, error) { return bench.Fig7(s.opts) })
	if fs.NArg() != 1 {
		fs.Usage()
		return nil, nil, fmt.Errorf("need exactly one experiment")
	}
	name := fs.Arg(0)
	var picked []experiment
	for _, e := range experiments {
		if e.name == name || (name == "all" && !e.notInAll) {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		fs.Usage()
		return nil, nil, fmt.Errorf("unknown experiment %q", name)
	}
	return &s, picked, nil
}

// teraSortExplicit reproduces the Sec. V-B discussion: TeraSort under
// automatic aggregation vs the developer's explicit transferTo before the
// bloating map. The first three rows are the paper sweep's TeraSort rows.
func teraSortExplicit(s *session) (string, error) {
	sweep, err := s.paperSweep()
	if err != nil {
		return "", err
	}
	explicit, err := bench.Sweep([]*workloads.Workload{workloads.TeraSortExplicit()}, []core.Scheme{core.SchemeManual}, s.opts)
	if err != nil {
		return "", err
	}
	var rows []bench.Series
	for _, scheme := range bench.Schemes() {
		auto, err := bench.Find(sweep, "TeraSort", scheme)
		if err != nil {
			return "", err
		}
		rows = append(rows, auto)
	}
	rows = append(rows, explicit[0])
	var b strings.Builder
	b.WriteString("Sec. V-B — TeraSort: automatic aggregation vs explicit transferTo\n")
	fmt.Fprintf(&b, "%-48s %10s %14s\n", "Variant", "JCT (s)", "cross-DC (MB)")
	for i, label := range []string{
		"Spark (fetch baseline)",
		"Centralized",
		"AggShuffle (auto, pushes bloated map output)",
		"Explicit transferTo before the bloating map",
	} {
		fmt.Fprintf(&b, "%-48s %10.1f %14.0f\n", label, rows[i].JCT.TrimmedMean, rows[i].CrossDCMB.TrimmedMean)
	}
	return b.String(), nil
}

// extensions sweeps the workloads beyond the paper's evaluation set.
func extensions(s *session) (string, error) {
	series, err := bench.Sweep(workloads.Extensions(), bench.Schemes(), s.opts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Extensions — workloads beyond the paper's five\n")
	fmt.Fprintf(&b, "%-12s %-12s %14s %18s\n", "Workload", "Scheme", "JCT (s)", "cross-DC (MB)")
	for _, ser := range series {
		fmt.Fprintf(&b, "%-12s %-12s %14.1f %18.0f\n", ser.Workload, ser.Scheme, ser.JCT.TrimmedMean, ser.CrossDCMB.TrimmedMean)
	}
	return b.String(), nil
}

// report writes the canonical JSON run report of one traced run per
// (workload, scheme) to the -report file, as a JSON array. Each element
// follows the wanshuffle/run-report/v1 schema — the same shape `wansim
// -report` emits.
func report(s *session) (string, error) {
	reports, err := bench.Reports(workloads.All(), bench.Schemes(), s.opts)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(s.reportFile, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d run reports (schema %s) written to %s\n", len(reports), obs.SchemaVersion, s.reportFile), nil
}
