package perf

import (
	"fmt"
	"math/rand"
	"strings"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// Generator salts, so the workloads' inputs differ under one seed.
const (
	saltSort  = 0x50f7
	saltWords = 0x77c0
)

// textPool builds n bytes of pseudo-text (lower-case words of 2-9 letters
// separated by spaces). Payloads cut from it at seeded offsets compress
// 2-3x under flate, like real text, not the 12x of a constant payload.
func textPool(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n + 16)
	for b.Len() < n {
		for l := 2 + rng.Intn(8); l > 0; l-- {
			b.WriteByte('a' + byte(rng.Intn(26)))
		}
		b.WriteByte(' ')
	}
	return b.String()[:n]
}

// SortRecords draws n HiBench-style records from seed: a 10-digit key and
// a 52-byte payload cut from a 4 KiB text pool.
func SortRecords(seed int64, n int) []rdd.Pair {
	const payload = 52
	rng := rand.New(rand.NewSource(seed ^ saltSort))
	pool := textPool(rng, 4096)
	recs := make([]rdd.Pair, n)
	for i := range recs {
		off := rng.Intn(len(pool) - payload)
		recs[i] = rdd.KV(fmt.Sprintf("%010d", rng.Intn(1<<30)), pool[off:off+payload])
	}
	return recs
}

// WordCountLines draws n lines of 8 zipf(1.3)-distributed words over a
// 5000-lexeme vocabulary from seed.
func WordCountLines(seed int64, n int) []rdd.Pair {
	const wordsPerLine, lexemes = 8, 5000
	rng := rand.New(rand.NewSource(seed ^ saltWords))
	zipf := rand.NewZipf(rng, 1.3, 1, lexemes-1)
	vocab := make([]string, lexemes)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("lexeme%04d", i)
	}
	recs := make([]rdd.Pair, n)
	words := make([]string, wordsPerLine)
	for i := range recs {
		for w := range words {
			words[w] = vocab[zipf.Uint64()]
		}
		recs[i] = rdd.KV(fmt.Sprintf("line%07d", i), strings.Join(words, " "))
	}
	return recs
}

// wordCounts is the reference output of the word count job.
func wordCounts(lines []rdd.Pair) map[string]int {
	counts := map[string]int{}
	for _, p := range lines {
		for _, w := range strings.Fields(p.Value.(string)) {
			counts[w]++
		}
	}
	return counts
}

// FNV-1a, inlined so hashing a record allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Checksum is an order-independent digest of a record multiset: the
// wrapping sum of each record's FNV-1a hash over key, a separator and the
// value (strings as they are, anything else through fmt).
func Checksum(recs []rdd.Pair) uint64 {
	var sum uint64
	for _, p := range recs {
		h := fnvAdd(fnvOffset64, p.Key) * fnvPrime64 // the multiply hashes a 0 separator byte
		if s, ok := p.Value.(string); ok {
			h = fnvAdd(h, s)
		} else {
			h = fnvAdd(h, fmt.Sprint(p.Value))
		}
		sum += h
	}
	return sum
}

// splitRoundRobin deals records into n partitions the way
// core.Context.DistributeRecords does (record i to partition i mod n).
func splitRoundRobin(recs []rdd.Pair, n int) [][]rdd.Pair {
	parts := make([][]rdd.Pair, n)
	for i := range parts {
		parts[i] = make([]rdd.Pair, 0, len(recs)/n+1)
	}
	for i, r := range recs {
		parts[i%n] = append(parts[i%n], r)
	}
	return parts
}

// splitDriverHeavy deals records into n partitions with the first holding
// one third and the rest sharing the remainder equally: the input skew of
// core.Context.DistributeRecords (the driver's region accumulates ~1/3 of
// the blocks) when each partition stands for one region.
func splitDriverHeavy(recs []rdd.Pair, n int) [][]rdd.Pair {
	if n < 2 {
		return [][]rdd.Pair{recs}
	}
	first := len(recs) / 3
	parts := make([][]rdd.Pair, n)
	parts[0] = recs[:first]
	rest := recs[first:]
	for i := 1; i < n; i++ {
		lo, hi := (i-1)*len(rest)/(n-1), i*len(rest)/(n-1)
		parts[i] = rest[lo:hi]
	}
	return parts
}

// inputRDD registers pre-generated partitions as a leaf of a fresh graph.
// Partition i is labelled host i, so the live cluster's round-robin task
// placement and a WAN topology's one-host-per-region layout agree.
func inputRDD(g *rdd.Graph, name string, parts [][]rdd.Pair) *rdd.RDD {
	in := make([]rdd.InputPartition, len(parts))
	for i, recs := range parts {
		in[i] = rdd.InputPartition{Host: topology.HostID(i), ModeledBytes: 1, Records: recs}
	}
	return g.Input(name, in)
}

// verifySorted checks a sort job's output: global key order, record count
// and the order-independent checksum against the input's.
func verifySorted(out []rdd.Pair, wantCount int, wantSum uint64) error {
	if len(out) != wantCount {
		return fmt.Errorf("sort output has %d records, want %d", len(out), wantCount)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			return fmt.Errorf("sort output out of order at %d: %q < %q", i, out[i].Key, out[i-1].Key)
		}
	}
	if got := Checksum(out); got != wantSum {
		return fmt.Errorf("sort output checksum %x, want %x", got, wantSum)
	}
	return nil
}

// verifyCounts checks a word count job's output against the counts
// computed in set-up.
func verifyCounts(out []rdd.Pair, want map[string]int) error {
	if len(out) != len(want) {
		return fmt.Errorf("word count output has %d words, want %d", len(out), len(want))
	}
	for _, p := range out {
		n, ok := p.Value.(int)
		if !ok {
			return fmt.Errorf("word %q has a %T count", p.Key, p.Value)
		}
		if want[p.Key] != n {
			return fmt.Errorf("word %q counted %d, want %d", p.Key, n, want[p.Key])
		}
	}
	return nil
}
