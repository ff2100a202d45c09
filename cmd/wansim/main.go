// Command wansim runs one HiBench workload under one of the paper's
// shuffle schemes and prints its run report — on the simulated six-region
// cluster, on a real loopback TCP cluster (-live), or as a multi-tenant job
// service taking workloads over HTTP (-serve).
//
//	wansim -workload pagerank -scheme agg -seed 3 -matrix -gantt -validate
//	wansim -workload sort -scheme spark -live -report run.json
//	wansim -serve -live -telemetry-addr 127.0.0.1:9090 -tenants heavy=3,light=1
//
// `wansim -h` lists every flag; README.md documents them by plane. All three
// modes run from one options value (options.go) through one backend seam
// (backend.go): runOnce (run.go) and runServe (serve.go) never learn which
// substrate executes the job, and everything printed comes from the
// canonical obs.Report (printReport in run.go). SIGINT/SIGTERM cancels the in-flight job
// cooperatively in every mode; -serve additionally drains its queue.
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

// runContext parses the flags once and hands the options to the mode's run
// path. Warnings and the progress line go to stderr.
func runContext(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	if o.serve {
		return runServe(ctx, o, stdout)
	}
	return runOnce(ctx, o, stdout, stderr)
}
