// Command wansim runs one HiBench workload under one of the paper's
// shuffle schemes and prints its run report — on the simulated six-region
// cluster, or on a real loopback TCP cluster (-live).
//
//	wansim -workload pagerank -scheme agg -seed 3 -matrix -gantt -validate
//	wansim -workload sort -scheme spark -live -report run.json
//
// `wansim -h` lists every flag; README.md documents them by plane. Both
// backends run from one options value (options.go) through one backend
// seam (backend.go): runOnce (run.go) never learns which substrate executes
// the job, and everything printed comes from the canonical obs.Report
// (printReport in run.go). startTelemetry (run.go) serves the job's
// /report, /metrics, /events and /trace. -report is the one writer of the
// report file. SIGINT/SIGTERM cancels the job cooperatively.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wansim:", err)
		os.Exit(1)
	}
}

// run is the process entry point minus os.Exit: SIGINT/SIGTERM cancels the
// context, which unwinds the in-flight job (tasks stop launching, the
// cluster closes, spill directories are removed) instead of killing the
// process mid-transfer.
func run(args []string, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runContext(ctx, args, stdout, os.Stderr)
}

// runContext parses the flags once and runs the job. Flag warnings go to
// stderr.
func runContext(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	return runOnce(ctx, o, stdout)
}
