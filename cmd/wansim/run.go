package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/telemetry"
	"wanshuffle/internal/workloads"
)

// runOnce executes one workload on the chosen backend and renders the
// result: telemetry while it runs, the printed summary, then whatever of
// -matrix/-gantt/-chrome/-report/-validate was asked for.
func runOnce(ctx context.Context, o *options, stdout io.Writer) error {
	b, release, err := openBackend(o)
	if err != nil {
		return err
	}
	defer release()
	j := &job{backend: b, workload: o.workload.Name}
	inst := o.workload.Make(b.lineage, workloads.Options{Seed: o.seed, Scale: o.scale})

	tel, stopTelemetry, err := startTelemetry(o, stdout, j)
	if err != nil {
		return err
	}
	defer stopTelemetry()
	records, rep, err := j.run(ctx, inst.Target)
	if err != nil {
		return err
	}

	printReport(stdout, rep, len(records))
	if o.matrix {
		fmt.Fprintln(stdout)
		printMatrix(stdout, rep)
	}
	if o.gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, b.tracer.Gantt(b.topo, 110))
	}
	if o.chrome != "" {
		if err := writeFile(o.chrome, func(w io.Writer) error { return b.tracer.WriteChromeTrace(w, b.topo) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  Chrome trace written to %s\n", o.chrome)
	}
	if o.report != "" {
		if err := writeFile(o.report, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  run report written to %s\n", o.report)
	}
	if o.validate {
		if err := inst.Validate(records); err != nil {
			return fmt.Errorf("validation failed: %w", err)
		}
		fmt.Fprintln(stdout, "  output validated against the in-memory reference ✓")
	}
	if tel != nil && o.linger > 0 {
		fmt.Fprintf(stdout, "telemetry: lingering %v at %s\n", o.linger, tel.URL())
		select {
		case <-time.After(o.linger):
		case <-ctx.Done():
		}
	}
	return nil
}

// job is one workload run on one backend, as the telemetry plane sees it.
type job struct {
	backend  *backend
	workload string
	// final is the run's report once run has returned it.
	final atomic.Pointer[obs.Report]
}

// run executes the job and keeps its final report for the telemetry plane.
func (j *job) run(ctx context.Context, target *rdd.RDD) ([]rdd.Pair, *obs.Report, error) {
	records, rep, err := j.backend.run(ctx, j.workload, target)
	if err == nil {
		j.final.Store(rep)
	}
	return records, rep, err
}

// report is the job's run report as it stands: the backend's in-progress
// snapshot until the run returns, then the final report itself — the same
// object -report writes, so the file and /report are byte-identical.
func (j *job) report() *obs.Report {
	if rep := j.final.Load(); rep != nil {
		return rep
	}
	return j.backend.snapshot(j.workload)
}

// startTelemetry brings the telemetry endpoint up on -telemetry-addr and
// announces its URL. Its /report, /metrics, /events and /trace serve j.
// Without an address it starts nothing: the server is nil and stop does
// nothing.
func startTelemetry(o *options, stdout io.Writer, j *job) (tel *telemetry.Server, stop func(), err error) {
	if o.telemetryAddr == "" {
		return nil, func() {}, nil
	}
	cfg := telemetry.Config{
		Report: j.report,
		Events: j.backend.events,
		Trace:  j.backend.tracer.Spans,
	}
	if tel, err = telemetry.Start(o.telemetryAddr, cfg); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "telemetry: serving at %s (GET / lists its endpoints)\n", tel.URL())
	// The process is done serving; nothing to do about a close error.
	return tel, func() { _ = tel.Close() }, nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// printReport renders the run summary a human reads. It reads nothing but
// the canonical report, so both backends print through the same lines and
// a section either adds to the report shows up in both modes.
func printReport(w io.Writer, rep *obs.Report, records int) {
	fmt.Fprintf(w, "%s on the %s backend (%s, %d sites", rep.Workload, rep.Backend, rep.Scheme, len(rep.Sites))
	if rep.Seed != 0 {
		fmt.Fprintf(w, ", seed %d", rep.Seed)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "  completion time:  %.3f s\n", rep.CompletionSec)
	fmt.Fprintf(w, "  output records:   %d\n", records)
	fmt.Fprintf(w, "  bytes moved:      %.3f MB\n", rep.BytesTotal/1e6)
	classes := make([]string, 0, len(rep.TrafficByClass))
	for class := range rep.TrafficByClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		fmt.Fprintf(w, "    %-14s  %.3f MB\n", class, rep.TrafficByClass[class]/1e6)
	}
	if rep.BytesRaw > rep.BytesTotal {
		fmt.Fprintf(w, "  bytes raw:        %.3f MB (compression ratio %.2fx)\n", rep.BytesRaw/1e6, rep.BytesRaw/rep.BytesTotal)
	}
	fmt.Fprintf(w, "  task attempts:    %d (%d retries, %d dials)\n", rep.TaskAttempts, rep.Retries, rep.Dials)
	if rep.CriticalPath != nil {
		fmt.Fprintf(w, "  %s\n", rep.CriticalPath.Summary())
	}
	fmt.Fprintf(w, "  %s\n", netobs.Summary(rep.Network))
	if p := rep.Placement; p != nil {
		fmt.Fprintf(w, "  placement (%s policy):\n", p.Policy)
		for _, d := range p.Decisions {
			site := d.ChosenSite
			if site == "" {
				site = fmt.Sprintf("site %d", d.Chosen)
			}
			source := d.Source
			if source == "" {
				source = "local"
			}
			fmt.Fprintf(w, "    shuffle %d -> %s (est. %.3f s, %s bandwidth, %d candidates)\n",
				d.Shuffle, site, d.CostSec, source, len(d.Candidates))
		}
	}
	if st := rep.Storage; st != nil && st.SpillEvents > 0 {
		fmt.Fprintf(w, "  block store:      %d spills (%.3f MB to disk, %.3f MB reloaded), %.3f MB resident\n",
			st.SpillEvents, st.SpilledBytesTotal/1e6, st.ReloadBytesTotal/1e6, st.ResidentBytes/1e6)
	}
	fmt.Fprintln(w, "  stages:")
	for _, st := range rep.Stages {
		fmt.Fprintf(w, "    %-34s %8.3f -> %8.3f (%7.3f s)\n", st.Name, st.Start, st.End, st.End-st.Start)
	}
}

// printMatrix renders the report's traffic matrix — per region simulated,
// per worker live — in KB, or MB once the run moved enough
// for that to read better. The diagonal is dashed: a site's traffic with
// itself crosses no link.
func printMatrix(w io.Writer, rep *obs.Report) {
	unit, div := "KB", 1e3
	if rep.BytesTotal >= 1e7 {
		unit, div = "MB", 1e6
	}
	width := 10
	for _, label := range rep.MatrixLabels {
		width = max(width, len(label))
	}
	fmt.Fprintf(w, "traffic (%s), row=source, col=destination\n", unit)
	fmt.Fprintf(w, "%*s", width, "")
	for _, label := range rep.MatrixLabels {
		fmt.Fprintf(w, " %*s", width, label)
	}
	fmt.Fprintln(w)
	for i, row := range rep.TrafficMatrix {
		fmt.Fprintf(w, "%*s", width, rep.MatrixLabels[i])
		for j, v := range row {
			if i == j {
				fmt.Fprintf(w, " %*s", width, "-")
				continue
			}
			fmt.Fprintf(w, " %*.1f", width, v/div)
		}
		fmt.Fprintln(w)
	}
}
