package rdd

import (
	"fmt"
	"testing"
)

func TestMapValuesKeepsKeys(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1", "b", "2"))
	doubled := in.MapValues("x2", func(v Value) Value { return v.(string) + v.(string) })
	got := sortedCollect(doubled)
	if got[0].Key != "a" || got[0].Value.(string) != "11" {
		t.Fatalf("MapValues = %v", got)
	}
}

func TestSumByKey(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, []Pair{KV("a", 1.5), KV("a", 2.5), KV("b", -1.0)})
	sums := sortedCollect(in.SumByKey("sum", 2))
	if sums[0].Value.(float64) != 4.0 || sums[1].Value.(float64) != -1.0 {
		t.Fatalf("SumByKey = %v", sums)
	}
}

func TestKeyBy(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, []Pair{KV("x", 41), KV("y", 7)})
	keyed := sortedCollect(in.KeyBy("by-val", func(p Pair) string {
		return fmt.Sprintf("%03d", p.Value.(int))
	}))
	if keyed[0].Key != "007" || keyed[1].Key != "041" {
		t.Fatalf("KeyBy = %v", keyed)
	}
}
