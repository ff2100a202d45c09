package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"wanshuffle/internal/stats"
	"wanshuffle/internal/trace"
)

// SchemaVersion identifies the canonical run-report schema. Both backends
// emit exactly this shape, so sim-vs-live behavioural cross-checks can be
// automated (e.g. live push-mode bytes on non-aggregator links ≈ 0).
const SchemaVersion = "wanshuffle/run-report/v1"

// histogramBuckets is the fixed bucket count of the per-stage task
// duration histograms.
const histogramBuckets = 8

// stragglerMultiplier marks a task a straggler when its duration exceeds
// this multiple of the stage median (Spark's speculation default).
const stragglerMultiplier = 1.5

// TaskSummary is the per-stage task-duration summary: percentiles,
// dispersion, a fixed-bucket histogram, and the straggler count.
type TaskSummary struct {
	Stage int    `json:"stage"`
	Name  string `json:"name"`
	// Kind is the span kind summarized (map / reduce / receive).
	Kind      string       `json:"kind"`
	Count     int          `json:"count"`
	MeanSec   float64      `json:"mean_sec"`
	StdDevSec float64      `json:"stddev_sec"`
	P50Sec    float64      `json:"p50_sec"`
	P95Sec    float64      `json:"p95_sec"`
	MaxSec    float64      `json:"max_sec"`
	Hist      []HistBucket `json:"hist,omitempty"`
	// Stragglers counts tasks slower than 1.5× the stage median.
	Stragglers int `json:"stragglers"`
}

// Report is the canonical machine-readable description of one job run,
// shared by the simulator and the live cluster. Times are seconds (virtual
// for sim, wall-clock for live); traffic is bytes.
type Report struct {
	Schema   string `json:"schema"`
	Backend  string `json:"backend"` // "sim" | "live"
	Workload string `json:"workload,omitempty"`
	// Scheme is the sim scheme (Spark/Centralized/AggShuffle/Manual) or
	// the live shuffle mode (fetch/push).
	Scheme        string       `json:"scheme"`
	Seed          int64        `json:"seed,omitempty"`
	Sites         []string     `json:"sites"`
	CompletionSec float64      `json:"completion_sec"`
	Stages        []StageEvent `json:"stages"`
	// TrafficByClass splits moved bytes by purpose (input / shuffle /
	// push / result / centralize / cache for sim; push / shuffle for
	// live).
	TrafficByClass map[string]float64 `json:"traffic_by_class"`
	// TrafficMatrix[i][j] is bytes moved from MatrixLabels[i] to
	// MatrixLabels[j]: per-region for sim, per-worker for live — the
	// comparable artifact behind the paper's S − s₁ claim.
	MatrixLabels  []string      `json:"matrix_labels"`
	TrafficMatrix [][]float64   `json:"traffic_matrix"`
	Tasks         []TaskSummary `json:"tasks,omitempty"`
	TaskAttempts  int           `json:"task_attempts"`
	Retries       int           `json:"retries"`
	Dials         int64         `json:"dials,omitempty"`
	BytesTotal    float64       `json:"bytes_total"`
	// BytesRaw is the uncompressed-equivalent payload total: BytesTotal
	// plus whatever chunk compression saved on the wire. Zero on backends
	// without wire compression (the simulator).
	BytesRaw float64 `json:"bytes_raw,omitempty"`
	// CriticalPath is the causally connected span chain that determined
	// wall-clock, with compute/transfer/wait attribution. Nil when the run
	// recorded no trace.
	CriticalPath *trace.CriticalPath `json:"critical_path,omitempty"`
	// Storage describes the shuffle block store after the run: resident
	// and spilled occupancy plus cumulative spill/reload activity, summed
	// across workers. Nil on backends without a block store (the
	// simulator models bytes, it does not hold them).
	Storage *StorageStats `json:"storage,omitempty"`
	// Network is the run's link estimate matrix: measured throughput (and,
	// simulated, modeled RTT) per site pair, plus — when a topology is configured — the
	// observed-vs-configured drift ratio. Built by internal/netobs from
	// measured exchanges (live) or modeled flow completions (sim); nil
	// when nothing was observed or configured.
	Network *NetworkStats `json:"network,omitempty"`
	// Placement records the automatic aggregator decisions: which site
	// each shuffle aggregated to, every candidate's estimated cost, and
	// which bandwidth source (measured / configured / uniform) the
	// estimates came from. Nil when no automatic placement ran.
	Placement *PlacementStats `json:"placement,omitempty"`
	Metrics   []MetricPoint   `json:"metrics,omitempty"`
}

// StorageStats is the run report's block-store section. Bytes are
// estimated in-memory record sizes (rdd.SizeOfAll, what the memory budget
// is charged in), not file sizes; the planner ranks aggregators by codec
// bytes (rdd.EncodedSize) instead.
type StorageStats struct {
	// ResidentBytes / ResidentOutputs describe what is held in memory.
	ResidentBytes   float64 `json:"resident_bytes"`
	ResidentOutputs int     `json:"resident_outputs"`
	// SpilledBytes / SpilledOutputs describe what sits on disk right now.
	SpilledBytes   float64 `json:"spilled_bytes"`
	SpilledOutputs int     `json:"spilled_outputs"`
	// SpilledBytesTotal / SpillEvents / ReloadBytesTotal accumulate over
	// the run: every output written to a spill file, and every spilled
	// output read back for a fetch.
	SpilledBytesTotal float64 `json:"spilled_bytes_total"`
	SpillEvents       int64   `json:"spill_events"`
	ReloadBytesTotal  float64 `json:"reload_bytes_total"`
}

// NetworkStats is the run report's network section: one entry per
// directed site pair that either moved bytes or is promised by the
// configured topology, sorted by source then destination.
type NetworkStats struct {
	Links []LinkStats `json:"links"`
}

// LinkStats is one directed site pair's link estimate.
type LinkStats struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// ThroughputBps is the EWMA of observed transfer rates; P50/P95 come
	// from a bounded window of recent samples.
	ThroughputBps float64 `json:"throughput_bps"`
	P50Bps        float64 `json:"p50_bps,omitempty"`
	P95Bps        float64 `json:"p95_bps,omitempty"`
	RTTSec        float64 `json:"rtt_sec,omitempty"`
	Samples       int64   `json:"samples"`
	Bytes         float64 `json:"bytes,omitempty"`
	// ConfiguredBps is the topology's promised rate for this pair, when
	// one is known; Drift is then observed/configured (present for every
	// configured link, zero-valued when the link was never observed).
	ConfiguredBps float64  `json:"configured_bps,omitempty"`
	Drift         *float64 `json:"drift,omitempty"`
}

// PlacementStats is the run report's placement section: the aggregator
// policy in force and one decision record per automatic shuffle.
type PlacementStats struct {
	Policy    string              `json:"policy"`
	Decisions []PlacementDecision `json:"decisions"`
}

// PlacementDecision records one automatic aggregator choice.
type PlacementDecision struct {
	// Shuffle and Stage identify the decision point (-1 when unknown).
	Shuffle int `json:"shuffle"`
	Stage   int `json:"stage"`
	// Chosen is the selected site's index; ChosenSite its label (DC name
	// in sim, worker label in live).
	Chosen     int    `json:"chosen"`
	ChosenSite string `json:"chosen_site,omitempty"`
	// CostSec is the chosen candidate's estimated transfer time; Source
	// the weakest bandwidth source behind it (measured / configured /
	// uniform, empty when no cross-site transfer was needed).
	CostSec    float64              `json:"cost_sec"`
	Source     string               `json:"source,omitempty"`
	Candidates []PlacementCandidate `json:"candidates"`
}

// PlacementCandidate is one candidate site's estimated cost within a
// placement decision.
type PlacementCandidate struct {
	Site       int     `json:"site"`
	SiteName   string  `json:"site_name,omitempty"`
	InputBytes float64 `json:"input_bytes"`
	CostSec    float64 `json:"cost_sec"`
	Source     string  `json:"source,omitempty"`
}

// PlacementSection assembles the placement section, nil when no decision
// was recorded.
func PlacementSection(policy string, decisions []PlacementDecision) *PlacementStats {
	if len(decisions) == 0 {
		return nil
	}
	return &PlacementStats{Policy: policy, Decisions: decisions}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport reads one report and checks its schema tag.
func DecodeReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: decoding run report: %w", err)
	}
	if rep.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: run report schema %q, want %q", rep.Schema, SchemaVersion)
	}
	return &rep, nil
}

// InProgressReport assembles a point-in-time snapshot of a running job
// from its event collector alone: stage windows completed so far, task
// attempt counts, and the full metrics snapshot. It carries the canonical
// schema tag so consumers can decode it like a final report; fields only
// known at completion (completion time, traffic matrix, task summaries)
// stay zero. Backends with richer live state (the live cluster's Stats)
// build fuller snapshots themselves.
func InProgressReport(backend, workload, scheme string, c *Collector) *Report {
	counts := c.Counts()
	return &Report{
		Schema:       SchemaVersion,
		Backend:      backend,
		Workload:     workload,
		Scheme:       scheme,
		Stages:       c.StageEvents(),
		TaskAttempts: counts.Started,
		Retries:      counts.Retried,
		Metrics:      c.Registry().Snapshot(),
	}
}

// summaryKinds are the span kinds that represent task occupancy and feed
// per-stage duration summaries.
var summaryKinds = []trace.Kind{trace.KindMap, trace.KindReduce, trace.KindReceive}

// TaskSummaries groups task spans by (stage, kind) and computes each
// group's duration summary via internal/stats. stageNames labels the
// groups; unknown stages keep an empty name. Output order is stage ID then
// kind, deterministic for golden tests.
func TaskSummaries(spans []trace.Span, stageNames map[int]string) []TaskSummary {
	type key struct {
		stage int
		kind  trace.Kind
	}
	wanted := map[trace.Kind]bool{}
	for _, k := range summaryKinds {
		wanted[k] = true
	}
	durs := map[key][]float64{}
	for _, s := range spans {
		if !wanted[s.Kind] {
			continue
		}
		k := key{s.Stage, s.Kind}
		durs[k] = append(durs[k], s.End-s.Start)
	}
	keys := make([]key, 0, len(durs))
	for k := range durs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stage != keys[j].stage {
			return keys[i].stage < keys[j].stage
		}
		return keys[i].kind < keys[j].kind
	})
	out := make([]TaskSummary, 0, len(keys))
	for _, k := range keys {
		ds := durs[k]
		median := stats.Median(ds)
		max := stats.Max(ds)
		h := stats.NewHistogram(stats.LinearEdges(0, max, histogramBuckets))
		stragglers := 0
		for _, d := range ds {
			h.Add(d)
			if d > stragglerMultiplier*median {
				stragglers++
			}
		}
		ts := TaskSummary{
			Stage:      k.stage,
			Name:       stageNames[k.stage],
			Kind:       string(k.kind),
			Count:      len(ds),
			MeanSec:    stats.Mean(ds),
			StdDevSec:  stats.StdDev(ds),
			P50Sec:     median,
			P95Sec:     stats.Percentile(ds, 95),
			MaxSec:     max,
			Stragglers: stragglers,
		}
		for _, b := range h.Buckets() {
			ts.Hist = append(ts.Hist, HistBucket{Le: formatEdge(b.Le), Count: b.Count})
		}
		out = append(out, ts)
	}
	return out
}

// StageNames indexes stage events by ID for TaskSummaries.
func StageNames(stages []StageEvent) map[int]string {
	out := make(map[int]string, len(stages))
	for _, st := range stages {
		out[st.ID] = st.Name
	}
	return out
}
