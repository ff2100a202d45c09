package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// ResultSchema versions the per-run result document.
const ResultSchema = "wanperf/result/v1"

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env records what is known about the machine and the build of a run.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the source revision when the build knows it (a driver
	// checkout is not a git repository, so it is usually empty there).
	Commit string `json:"commit,omitempty"`
}

// Check is one workload precondition: proof the run exercised the layer
// it exists to exercise. A failed check makes the run invalid.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
	// Advisory checks are reported but do not invalidate the run.
	Advisory bool `json:"advisory,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Env      Env    `json:"env"`
	// Scale shrinks the workload (tests use 1/50); 1 is the benchmark.
	Scale float64 `json:"scale"`
	// TimedJobs is the sample count behind job_s_p50; Attempted counts
	// warm-ups too. RecordsPerJob is the unit count one job processes.
	TimedJobs     int     `json:"timed_jobs"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	RecordsPerJob float64 `json:"records_per_job"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]Value `json:"metrics"`
	// Derived holds unbounded numbers computed from the metrics (wire
	// MB/s, failed_jobs_share, measured seconds).
	Derived map[string]Value `json:"derived,omitempty"`
	// Reproduced holds virtual-time results (simulated JCT, cross-DC MB,
	// exact event counts): identical for one seed, never compared as
	// performance.
	Reproduced map[string]float64 `json:"reproduced,omitempty"`
	Checks     []Check            `json:"checks"`
	Errors     []string           `json:"errors,omitempty"`
	// Correct is true when no job failed or mis-verified and every
	// precondition held.
	Correct bool `json:"correct"`
}

func newResult(workload string, o Options) *Result {
	return &Result{
		Schema: ResultSchema, Workload: workload, Seed: o.Seed, Traced: o.Trace,
		Env: CurrentEnv(), Scale: o.scale(),
		Metrics: map[string]Value{}, Derived: map[string]Value{},
	}
}

func (r *Result) set(name string, v float64) {
	m, ok := FindMetric(name)
	if !ok {
		panic("perf: metric " + name + " is not in the spec")
	}
	r.Metrics[name] = Value{Value: v, Unit: m.Unit}
}

func (r *Result) derive(name string, v float64, unit string) {
	r.Derived[name] = Value{Value: v, Unit: unit}
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// finish fills in every metric of the run's kind the workload did not
// exercise with 0, and settles Correct.
func (r *Result) finish() {
	list := EndToEnd
	if r.Traced {
		list = PerLayer
	}
	for _, m := range list {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.Metrics[m.Name] = Value{Unit: m.Unit}
		}
	}
	r.derive("failed_jobs_share", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, c := range r.Checks {
		if !c.OK && !c.Advisory {
			r.Correct = false
		}
	}
}

// DriverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
func (r *Result) DriverLine() string {
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// Print writes every metric by name with its unit, then the checks.
func (r *Result) Print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "wanperf %s seed %d: %s, %d timed jobs of %.0f records, %d attempted, %d failed\n",
		r.Workload, r.Seed, kind, r.TimedJobs, r.RecordsPerJob, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  go %s %s/%s nproc %d GOMAXPROCS %d commit %q\n",
		r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Commit)
	printValues(w, "metrics", r.Metrics)
	printValues(w, "derived", r.Derived)
	if len(r.Reproduced) > 0 {
		fmt.Fprintln(w, "  reproduced (virtual time, identical per seed, not performance):")
		for _, k := range sortedKeys(r.Reproduced) {
			fmt.Fprintf(w, "    %-40s %s\n", k, strconv.FormatFloat(r.Reproduced[k], 'g', -1, 64))
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		switch {
		case !c.OK && c.Advisory:
			verdict = "NOTE"
		case !c.OK:
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %-6s %s\n", c.Name, verdict, c.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func printValues(w io.Writer, title string, vals map[string]Value) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s:\n", title)
	for _, k := range sortedKeys(vals) {
		fmt.Fprintf(w, "    %-40s %14.6g %s\n", k, vals[k].Value, vals[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON decodes the JSON file at path into v.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Commit is the source revision, set by the command from build info.
var commit string

// SetCommit records the source revision reported in Env.
func SetCommit(rev string) { commit = rev }

// CurrentEnv describes this process.
func CurrentEnv() Env {
	return Env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit,
	}
}

// LimitProcs sets GOMAXPROCS to min(nproc, 4), the benchmark's fixed
// parallelism: the load comes from one process that never asks for more
// cores than the box has.
func LimitProcs() {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB; 0
// where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
