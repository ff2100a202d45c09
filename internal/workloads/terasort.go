package workloads

import (
	"fmt"
	"strings"

	"wanshuffle/internal/rdd"
)

// teraSortBloat pads each record during the pre-shuffle map, reproducing
// the HiBench implementation quirk the paper highlights (Sec. V-B): "there
// is a map transformation before all shuffles, which actually bloats the
// input data size", making TeraSort the one workload where the Centralized
// baseline ships fewer bytes than automatic shuffle aggregation.
const teraSortBloat = "#partition-tag#"

// TeraSort sorts 100-byte records whose pre-shuffle map bloats the data.
func TeraSort() *Workload {
	return teraSort("TeraSort", func(in *rdd.RDD) *rdd.RDD { return in })
}

// TeraSortExplicit is the developer-optimized variant: the raw input is
// aggregated before the bloating map via an explicit transferTo(), to be
// run under core.SchemeManual.
func TeraSortExplicit() *Workload {
	return TeraSortExplicitTopK(1)
}

// TeraSortExplicitTopK aggregates the raw input into the top-K
// datacenters before the bloating map (Sec. III-B's "subset of
// datacenters"); K=1 is TeraSortExplicit.
func TeraSortExplicitTopK(k int) *Workload {
	return teraSort(fmt.Sprintf("TeraSort-explicit-k%d", k), func(in *rdd.RDD) *rdd.RDD { return in.TransferToTopK(k) })
}

// teraSort declares the TeraSort dataflow with transfer applied to the raw
// input, *before* the bloating map. A developer-placed transferTo() there
// is the fix the paper prescribes (Sec. V-B): only the developer can know
// the map inflates the data, so the raw records should be aggregated
// instead of the bloated shuffle input.
func teraSort(name string, transfer func(*rdd.RDD) *rdd.RDD) *Workload {
	return &Workload{
		Name:   name,
		TableI: "The input has 32 million records. Each record is 100 bytes in size.",
		InFig8: true,
		// 32 million records of 100 bytes.
		Inputs: []Input{{"terasort.input", sortRecords(0x7e4a), 3.2 * GB}},
		Flow: func(ins []*rdd.RDD) *rdd.RDD {
			tagged := transfer(ins[0]).Map("terasort.tag", func(p rdd.Pair) rdd.Pair {
				return rdd.KV(p.Key, p.Value.(string)+teraSortBloat)
			})
			sorted := tagged.SortByKey("terasort.sorted", parallelism)
			return sorted.Map("terasort.strip", func(p rdd.Pair) rdd.Pair {
				return rdd.KV(p.Key, strings.TrimSuffix(p.Value.(string), teraSortBloat))
			})
		},
		Check: expectSortedMatch,
	}
}
