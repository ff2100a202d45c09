// Package wanshuffle is a Go reproduction of "Optimizing Shuffle in
// Wide-Area Data Analytics" (Liu, Wang, Li — ICDCS 2017): a Spark-like
// dataflow engine for geo-distributed clusters whose shuffle can run in the
// stock fetch-based mode or with the paper's proactive Push/Aggregate
// mechanism (transferTo), evaluated on a deterministic flow-level WAN
// simulator.
//
// Quick start:
//
//	ctx := wanshuffle.NewContext(wanshuffle.Config{
//		Seed:   1,
//		Scheme: wanshuffle.SchemeAggShuffle,
//	})
//	input := ctx.DistributeRecords("text", records, 8, 3.2e9)
//	splitWords := func(p wanshuffle.Pair, emit func(wanshuffle.Pair)) {
//		for _, w := range strings.Fields(p.Value.(string)) {
//			emit(wanshuffle.KV(w, 1))
//		}
//	}
//	counts := input.
//		MapMulti("split", splitWords).
//		ReduceByKey("counts", 8, sumInts)
//	report, err := ctx.Collect(counts)
//
// The package re-exports the engine's internal packages as a single public
// surface: dataset construction and transformations (including TransferTo,
// the paper's contribution), the three evaluation schemes, the six-region
// EC2 topology preset, and run reports with per-stage spans and
// cross-datacenter traffic accounting.
//
// The package's Example functions are complete programs whose printed
// output go test checks: WordCount under the fetch baseline and under
// Push/Aggregate, caching after a transferTo (Sec. IV-E), and iterative
// KMeans and PageRank over the six regions.
package wanshuffle

import (
	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// Core dataset types.
type (
	// Pair is a key-value record.
	Pair = rdd.Pair
	// Value is a record payload.
	Value = rdd.Value
	// RDD is a dataset node in the lineage graph.
	RDD = rdd.RDD
	// InputPartition pins records and a modeled size to a host.
	InputPartition = rdd.InputPartition
	// CombineFn merges two values of one key.
	CombineFn = rdd.CombineFn
	// EachFn is a per-record operator: it emits every record one input
	// record turns into (MapMulti's argument).
	EachFn = rdd.EachFn
)

// Engine types.
type (
	// Context owns a lineage graph and a simulated cluster.
	Context = core.Context
	// Config configures a Context.
	Config = core.Config
	// Scheme selects the wide-area shuffle strategy.
	Scheme = core.Scheme
	// Report describes a completed job run.
	Report = core.Report
	// ExecConfig exposes the execution-model knobs.
	ExecConfig = exec.Config
	// FailureSpec injects a deterministic reduce-task failure.
	FailureSpec = exec.FailureSpec
)

// Topology types.
type (
	// Topology describes datacenters, hosts, and WAN links.
	Topology = topology.Topology
	// DCID identifies a datacenter.
	DCID = topology.DCID
	// HostID identifies a host.
	HostID = topology.HostID
)

// Schemes (Sec. V-A of the paper).
const (
	// SchemeSpark is stock fetch-based shuffle across datacenters.
	SchemeSpark = core.SchemeSpark
	// SchemeCentralized ships all raw input to one datacenter first.
	SchemeCentralized = core.SchemeCentralized
	// SchemeAggShuffle is the paper's Push/Aggregate mechanism with
	// automatic transferTo embedding.
	SchemeAggShuffle = core.SchemeAggShuffle
	// SchemeManual honors the application's explicit TransferTo calls.
	SchemeManual = core.SchemeManual
)

// NewContext builds a Context; the zero Config gives the paper's
// six-region EC2 cluster under SchemeSpark.
func NewContext(cfg Config) *Context { return core.NewContext(cfg) }

// KV constructs a Pair.
func KV(k string, v Value) Pair { return rdd.KV(k, v) }

// SixRegionEC2 returns the paper's evaluation cluster (Fig. 6): six EC2
// regions, four 2-core workers each, master and namenode in N. Virginia,
// jittery 80–300 Mbps WAN links.
func SixRegionEC2() *Topology { return topology.SixRegionEC2() }

// TwoDCMicro returns a small two-datacenter topology: two 2-core hosts per
// DC, the inter-DC path at ¼ of host NIC bandwidth.
func TwoDCMicro() *Topology { return topology.TwoDCMicro() }
