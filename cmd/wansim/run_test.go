package main

import (
	"strings"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

func f64(v float64) *float64 { return &v }

// TestPrintReport pins the CLI text over one fixed report per backend: both
// print through the same lines, and a section only one backend fills
// (storage, bytes_raw, seed) simply has no line in the other.
func TestPrintReport(t *testing.T) {
	sim := &obs.Report{
		Backend: "sim", Workload: "WordCount", Scheme: "AggShuffle", Seed: 7,
		Sites:         []string{"us-east-1", "ap-southeast-1"},
		CompletionSec: 12.5,
		Stages:        []obs.StageEvent{{ID: 0, Name: "stage0(map:wc.split)", Start: 0, End: 9.25}, {ID: 1, Name: "stage1(result:wc.count)", Start: 9.25, End: 12.5}},
		TrafficByClass: map[string]float64{
			"push": 480e6, "input": 20e6,
		},
		MatrixLabels:  []string{"us-east-1", "ap-southeast-1"},
		TrafficMatrix: [][]float64{{0, 20e6}, {480e6, 0}},
		TaskAttempts:  48, Retries: 2,
		BytesTotal: 500e6,
		CriticalPath: &trace.CriticalPath{
			TotalSec: 12.5, ComputeFrac: 0.25, TransferFrac: 0.5, WaitFrac: 0.25, Hosts: 3,
			Steps: make([]trace.PathStep, 4),
			Links: []trace.LinkCost{{Src: "ap-southeast-1", Dst: "us-east-1", Frac: 0.4}},
		},
		Network: &obs.NetworkStats{Links: []obs.LinkStats{
			{Src: "ap-southeast-1", Dst: "us-east-1", ThroughputBps: 80e6, Samples: 9, Bytes: 480e6, ConfiguredBps: 100e6, Drift: f64(0.8)},
		}},
		Placement: &obs.PlacementStats{Policy: "best", Decisions: []obs.PlacementDecision{
			{Shuffle: 1, Chosen: 0, ChosenSite: "us-east-1", CostSec: 1.5, Source: "configured", Candidates: make([]obs.PlacementCandidate, 2)},
		}},
	}
	live := &obs.Report{
		Backend: "live", Workload: "Sort", Scheme: "push",
		Sites:          []string{"w0", "w1"},
		CompletionSec:  0.0425,
		Stages:         []obs.StageEvent{{ID: 0, Name: "stage0(map:sort.input)", Start: 0, End: 0.03}},
		TrafficByClass: map[string]float64{"push": 30e3, "shuffle": 10e3},
		MatrixLabels:   []string{"w0", "w1"},
		TrafficMatrix:  [][]float64{{4e3, 0}, {26e3, 10e3}},
		TaskAttempts:   32, Retries: 0, Dials: 12,
		BytesTotal: 40e3, BytesRaw: 100e3,
		Storage: &obs.StorageStats{SpillEvents: 3, SpilledBytesTotal: 2e6, ReloadBytesTotal: 1e6, ResidentBytes: 4e3},
		Placement: &obs.PlacementStats{Policy: "bandwidth", Decisions: []obs.PlacementDecision{
			{Shuffle: 2, Chosen: 1, CostSec: 0.006, Candidates: make([]obs.PlacementCandidate, 2)},
		}},
	}
	for _, tc := range []struct {
		name string
		rep  *obs.Report
		want string
	}{
		{"sim", sim, `
WordCount on the sim backend (AggShuffle, 2 sites, seed 7)
  completion time:  12.500 s
  output records:   200
  bytes moved:      500.000 MB
    input           20.000 MB
    push            480.000 MB
  task attempts:    48 (2 retries, 0 dials)
  critical path: 50% transfer / 25% compute / 25% wait across 4 spans on 3 hosts; busiest link ap-southeast-1→us-east-1 (40% of the path)
  links: 1 pairs measured, busiest ap-southeast-1->us-east-1 80.00 Mbit/s over 457.76 MiB, drift 0.80x-0.80x of configured
  placement (best policy):
    shuffle 1 -> us-east-1 (est. 1.500 s, configured bandwidth, 2 candidates)
  stages:
    stage0(map:wc.split)                  0.000 ->    9.250 (  9.250 s)
    stage1(result:wc.count)               9.250 ->   12.500 (  3.250 s)

traffic (MB), row=source, col=destination
                    us-east-1 ap-southeast-1
     us-east-1              -           20.0
ap-southeast-1          480.0              -
`},
		{"live", live, `
Sort on the live backend (push, 2 sites)
  completion time:  0.043 s
  output records:   200
  bytes moved:      0.040 MB
    push            0.030 MB
    shuffle         0.010 MB
  bytes raw:        0.100 MB (compression ratio 2.50x)
  task attempts:    32 (0 retries, 12 dials)
  links: none observed
  placement (bandwidth policy):
    shuffle 2 -> site 1 (est. 0.006 s, local bandwidth, 2 candidates)
  block store:      3 spills (2.000 MB to disk, 1.000 MB reloaded), 0.004 MB resident
  stages:
    stage0(map:sort.input)                0.000 ->    0.030 (  0.030 s)

traffic (KB), row=source, col=destination
                   w0         w1
        w0          -        0.0
        w1       26.0          -
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			printReport(&b, tc.rep, 200)
			b.WriteString("\n")
			printMatrix(&b, tc.rep)
			if got := "\n" + b.String(); got != tc.want {
				t.Fatalf("printed:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
