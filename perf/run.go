package perf

import (
	"fmt"
	"os"
	"path/filepath"
)

// Run runs one workload once and returns its result and, for a traced
// run, the benchmark's own spans.
func Run(workload string, o Options) (*Result, []Span, error) {
	if o.Seconds <= 0 && o.Jobs <= 0 {
		return nil, nil, fmt.Errorf("perf: need a positive measuring window or job count")
	}
	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return nil, nil, err
	}
	if workload == SimFig7 {
		return runSim(o)
	}
	for _, w := range liveWorkloads() {
		if w.name == workload {
			return runLive(w, o)
		}
	}
	return nil, nil, fmt.Errorf("perf: unknown workload %q", workload)
}

// TracePath is where a traced run of workload writes its spans.
func TracePath(o Options, workload string) string {
	return filepath.Join(o.outDir(), workload+".trace.json")
}
