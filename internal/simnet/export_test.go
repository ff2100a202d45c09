package simnet

import "wanshuffle/internal/topology"

// WANCapBps returns the current (possibly jittered) capacity of the WAN
// path between an instance pair in distinct DCs a and b, in bits per
// second.
func (n *Network) WANCapBps(a, b topology.DCID) float64 {
	return n.topo.InterBps(a, b) * n.jitterF[a][b]
}
