package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG wraps a seeded PRNG stream. Independent components derive their own
// streams from a root seed plus a stable name, so that adding randomness to
// one component does not perturb the draws seen by another (a common source
// of accidental non-determinism in simulators).
type RNG struct {
	*rand.Rand
}

// newRNG returns a stream derived from seed alone.
func newRNG(seed int64) RNG {
	return RNG{Rand: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent, reproducible sub-stream identified by name.
func Stream(seed int64, name string) RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return newRNG(seed ^ int64(h.Sum64()))
}

// Jitter returns a multiplicative factor in [1-amp, 1+amp], uniformly.
func (r RNG) Jitter(amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	return 1 + amp*(2*r.Float64()-1)
}
