// Command wanperf runs the repository's wall-clock benchmark.
//
//	wanperf run --workload sort-push --seed 1 --seconds 10 --trace 0
//	wanperf all -sets 5 -traced -out a.json
//	wanperf compare a.json b.json
//	wanperf record -n 0 a.json b.json
//	wanperf spec > ../BENCHMARK.json
//
// See perf/README.md for the workloads, the metrics and the procedure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"

	"wanshuffle/perf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wanperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: wanperf run|all|compare|record [flags] (see perf/README.md)")
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty" // built from a tree with uncommitted changes
			}
		}
		if rev != "" {
			perf.SetCommit(rev + dirty)
		}
	}
	switch args[0] {
	case "run":
		return runOne(args[1:])
	case "all":
		return runAll(args[1:])
	case "compare":
		return compare(args[1:])
	case "record":
		return record(args[1:])
	case "spec":
		return printSpec()
	default:
		return fmt.Errorf("unknown subcommand %q (want run, all, compare, record or spec)", args[0])
	}
}

// runOne runs one workload in this process. Its flags are the benchmark
// driver's: --workload --seed --seconds --trace, with 0|1 for the last.
func runOne(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (required)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	scale := fs.Float64("scale", 1, "input scale (tests use 0.02)")
	jobs := fs.Int("jobs", 0, "fixed number of timed jobs instead of filling the window")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	outDir := fs.String("outdir", "out", "directory for trace files and spill directories")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" {
		return fmt.Errorf("run: --workload is required")
	}
	perf.LimitProcs()
	o := perf.Options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: *scale, Jobs: *jobs, OutDir: *outDir}
	res, spans, err := perf.Run(*workload, o)
	if err != nil {
		return err
	}
	if o.Trace {
		if err := perf.CheckNesting(spans); err != nil {
			return fmt.Errorf("benchmark spans: %w", err)
		}
		if err := perf.WriteSpans(perf.TracePath(o, *workload), spans); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := perf.WriteJSON(*out, res); err != nil {
			return err
		}
	}
	res.Print(os.Stdout)
	fmt.Println(res.DriverLine())
	return nil
}

// runAll runs every workload -sets times, each run in its own process,
// alternating the workload order between sets, and reports each
// end-to-end metric's median and quartiles.
func runAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	sets := fs.Int("sets", 5, "how many times to run every workload")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", runSeconds, "measuring window in seconds")
	traced := fs.Bool("traced", false, "add one traced set for the per-layer metrics")
	out := fs.String("out", "", "write the summary as JSON to this file")
	outDir := fs.String("outdir", "out", "directory for per-run results, trace files and spill directories")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var results []*perf.Result
	one := func(workload string, trace int) error {
		path := filepath.Join(*outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
		cmd := exec.Command(self, "run", "--workload", workload, "--seed", fmt.Sprint(*seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace), "-out", path, "-outdir", *outDir)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (trace %d): %w", workload, trace, err)
		}
		var res perf.Result
		if err := perf.ReadJSON(path, &res); err != nil {
			return err
		}
		results = append(results, &res)
		return nil
	}
	order := perf.Workloads
	for set := 0; set < *sets; set++ {
		for i := range order {
			w := order[i]
			if set%2 == 1 {
				w = order[len(order)-1-i]
			}
			fmt.Fprintf(os.Stderr, "set %d/%d: %s\n", set+1, *sets, w.Name)
			if err := one(w.Name, 0); err != nil {
				return err
			}
		}
	}
	if *traced {
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "traced set: %s\n", w.Name)
			if err := one(w.Name, 1); err != nil {
				return err
			}
		}
	}
	sum := perf.Summarize(results, *seed, *sets, *seconds)
	perf.PrintSummary(os.Stdout, sum)
	if *out != "" {
		return perf.WriteJSON(*out, sum)
	}
	return nil
}

// readSummary loads a summary file, or wraps a single run's result file
// into a one-run summary.
func readSummary(path string) (*perf.Summary, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := perf.ReadJSON(path, &probe); err != nil {
		return nil, err
	}
	switch probe.Schema {
	case perf.SummarySchema:
		var s perf.Summary
		return &s, perf.ReadJSON(path, &s)
	case perf.ResultSchema:
		var r perf.Result
		if err := perf.ReadJSON(path, &r); err != nil {
			return nil, err
		}
		return perf.Summarize([]*perf.Result{&r}, r.Seed, 1, 0), nil
	default:
		return nil, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
	}
}

// readPair loads the two summaries named by the remaining arguments.
func readPair(fs *flag.FlagSet, usage string) (a, b *perf.Summary, err error) {
	if fs.NArg() != 2 {
		return nil, nil, fmt.Errorf("%s", usage)
	}
	if a, err = readSummary(fs.Arg(0)); err != nil {
		return nil, nil, err
	}
	if b, err = readSummary(fs.Arg(1)); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// compare applies the bounds to two summaries and exits non-zero unless
// every row is ok.
func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, b, err := readPair(fs, "usage: wanperf compare A.json B.json (A is the base)")
	if err != nil {
		return err
	}
	rows := perf.Compare(a, b)
	perf.PrintRows(os.Stdout, rows)
	if !perf.AllOK(rows) {
		return fmt.Errorf("not every workload x metric is ok")
	}
	return nil
}

// record writes a trajectory file results/BENCH_<n>.json: summary A with
// its A/A verdicts against summary B, a second set of runs of the same
// commit.
func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	n := fs.Int("n", 0, "trajectory index")
	dir := fs.String("dir", "results", "directory of the trajectory files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, b, err := readPair(fs, "usage: wanperf record -n N A.json B.json")
	if err != nil {
		return err
	}
	a.AA = perf.Compare(a, b)
	a.Notes = perf.BaselineNotes
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", *n))
	if err := perf.WriteJSON(path, a); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	perf.PrintRows(os.Stdout, a.AA)
	if !perf.AllOK(a.AA) {
		return fmt.Errorf("the two sets of runs do not agree within the bounds")
	}
	return nil
}

// runSeconds is the measuring window the benchmark driver passes to every
// run (BENCHMARK.json's run_seconds).
const runSeconds = 10

// printSpec prints BENCHMARK.json from the package's tables, the one
// place the workloads, metrics and bounds are written down.
func printSpec() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"command":     []string{"bash", "perf/run.sh"},
		"paths":       []string{"perf"},
		"run_seconds": runSeconds,
		"workloads":   perf.Workloads,
		"end_to_end":  perf.EndToEnd,
		"per_layer":   perf.PerLayer, // no bound, so the field is omitted
	})
}
