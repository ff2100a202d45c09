package rdd

// This file provides the convenience transformations the bundled workloads
// and Examples call. Each is a thin composition over the core primitives,
// so it inherits placement, pipelining, and transfer semantics unchanged.

// MapValues transforms each record's value, keeping its key. Like Spark's
// mapValues it preserves partitioning.
func (r *RDD) MapValues(name string, fn func(Value) Value) *RDD {
	return r.Map(name, func(p Pair) Pair { return Pair{Key: p.Key, Value: fn(p.Value)} })
}

// SumByKey sums float64 values per key through a combining shuffle.
func (r *RDD) SumByKey(name string, numParts int) *RDD {
	return r.ReduceByKey(name, numParts, func(a, b Value) Value { return a.(float64) + b.(float64) })
}

// KeyBy re-keys each record by fn applied to the whole pair.
func (r *RDD) KeyBy(name string, fn func(Pair) string) *RDD {
	return r.Map(name, func(p Pair) Pair { return Pair{Key: fn(p), Value: p.Value} })
}
