// Package rdd defines the dataset abstraction of the wanshuffle engine: a
// lineage graph of Resilient Distributed Dataset nodes connected by narrow
// and shuffle dependencies, mirroring the Spark model the paper modifies.
//
// An RDD here is pure metadata — transformations record *how* to compute
// each partition; the internal/exec engine evaluates them on the simulated
// cluster. The paper's contribution surfaces as the TransferTo
// transformation (Sec. IV-B), which inserts pipelined receiver tasks whose
// placement is constrained to an aggregator datacenter.
package rdd

import "fmt"

// Value is the payload of a record. Workloads use strings, numbers, slices
// of Values, or small structs; SizeOf must understand every type stored.
type Value = any

// Pair is a key-value record, the unit of data flowing between
// transformations (as in Spark's pair RDDs).
type Pair struct {
	Key   string
	Value Value
}

// KV is shorthand for constructing a Pair.
func KV(k string, v Value) Pair { return Pair{Key: k, Value: v} }

const (
	recordOverhead = 16 // per-record framing/pointer overhead, bytes
	sliceOverhead  = 24
)

// SizeOf estimates the serialized size of a record in bytes. The engine
// multiplies real sizes by each partition's modeled scale factor, so only
// relative sizes matter; the estimator errs on the side of simplicity.
func SizeOf(p Pair) float64 {
	return float64(len(p.Key)) + valueSize(p.Value) + recordOverhead
}

func valueSize(v Value) float64 {
	switch x := v.(type) {
	case nil:
		return 0
	case string:
		return float64(len(x))
	case []byte:
		return float64(len(x))
	case bool:
		return 1
	case int, int32, int64, uint64, float64, float32:
		return 8
	case []Value:
		s := float64(sliceOverhead)
		for _, e := range x {
			s += valueSize(e)
		}
		return s
	case []string:
		s := float64(sliceOverhead)
		for _, e := range x {
			s += float64(len(e)) + 8
		}
		return s
	case []float64:
		return float64(sliceOverhead + 8*len(x))
	case [2][]Value:
		return valueSize(x[0]) + valueSize(x[1])
	case Sized:
		return x.SizeBytes()
	default:
		panic(fmt.Sprintf("rdd: SizeOf does not understand %T; implement rdd.Sized", v))
	}
}

// Sized lets workload-specific value types report their serialized size.
type Sized interface {
	SizeBytes() float64
}

// SizeOfAll sums SizeOf over a record slice.
func SizeOfAll(records []Pair) float64 {
	var s float64
	for _, r := range records {
		s += SizeOf(r)
	}
	return s
}
