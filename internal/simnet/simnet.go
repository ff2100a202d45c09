// Package simnet models a geo-distributed network at flow level on top of
// the discrete-event kernel in internal/sim.
//
// Every transfer is a flow from one host to another. An intra-datacenter
// flow traverses the two hosts' NICs (datacenter networks have abundant
// bandwidth, Sec. II-A). A cross-datacenter flow additionally traverses:
//
//   - the source host's WAN uplink and the destination host's WAN
//     downlink — a per-instance share of wide-area capacity, matching how
//     EC2 limits per-instance cross-region throughput;
//   - the host-pair WAN path, whose capacity is the paper's measured
//     80–300 Mbps between instance pairs in two regions (Sec. V-A).
//
// Concurrent flows share link capacity by max-min fairness, computed with
// the classic progressive-filling algorithm; rates are recomputed whenever
// a flow starts or finishes and whenever wide-area capacity changes. Each
// link indexes the active flows that cross it, so a filling round freezes
// the bottleneck's own flows without scanning the others: one refill costs
// the active flows' path lengths once, plus per round the links still
// carrying unfrozen flows and the flows that round freezes. A refill
// allocates nothing.
//
// Two wide-area non-idealities the paper leans on are modeled explicitly:
//
//   - Bandwidth jitter: host-pair WAN paths fluctuate over time with a
//     bounded AR(1) process per datacenter pair (Sec. V-A: available
//     bandwidth "fluctuates greatly").
//   - Burst degradation: when many flows multiplex a host's WAN uplink or
//     downlink at once — the all-to-all fetch burst of Sec. II-B — TCP
//     goodput over high-latency paths degrades. Effective link capacity
//     scales by 1/(1+β·(n−1)) for n concurrent flows (β =
//     Config.BurstPenalty). Proactive pushes, which arrive staggered as
//     mappers finish, multiplex far less and keep η near 1.
//
// The network also keeps byte counters per traffic tag and per datacenter
// pair; cross-datacenter totals feed the Fig. 8 reproduction.
//
// All internal iteration runs over creation-ordered slices, never maps, so
// that floating-point accumulation order — and therefore the entire
// simulation — is byte-for-byte deterministic for a given seed.
package simnet

import (
	"fmt"
	"math"

	"wanshuffle/internal/sim"
	"wanshuffle/internal/topology"
)

// Config tunes the network model. The zero value enables jitter-free links.
type Config struct {
	// JitterAmplitude scales the AR(1) bandwidth fluctuation of wide-area
	// links. 0 disables jitter. With amplitude a, capacity stays within
	// roughly ±2a of the base value.
	JitterAmplitude float64
	// HostWANBps is each host's wide-area uplink/downlink share — the
	// per-instance cross-region throughput limit. Defaults to 450 Mbps
	// ("moderate" EC2 instance networking of the paper's era).
	HostWANBps float64
	// BurstPenalty is β in the WAN burst-degradation factor
	// 1/(1+β·(n−1)) applied to host WAN links carrying n concurrent
	// flows. Defaults to 0.12; set negative to disable (idealized fluid
	// TCP).
	BurstPenalty float64
}

// loopbackBps bounds same-host transfers.
const loopbackBps = 10 * topology.Gbps

// The AR(1) jitter process of wide-area links (Config.JitterAmplitude).
const (
	// jitterPeriod is the virtual-time interval between capacity re-samples.
	jitterPeriod = 5.0
	// jitterRho is the AR(1) autocorrelation, in [0,1).
	jitterRho = 0.7
)

func (c Config) withDefaults() Config {
	if c.HostWANBps <= 0 {
		c.HostWANBps = 450 * topology.Mbps
	}
	if c.BurstPenalty == 0 {
		c.BurstPenalty = 0.12
	} else if c.BurstPenalty < 0 {
		c.BurstPenalty = 0
	}
	return c
}

// maxPath is the longest flow path: NIC up, WAN up, the host-pair path,
// WAN down, NIC down.
const maxPath = 5

// flow is an in-progress transfer, created by Network.StartFlow.
type flow struct {
	src, dst topology.HostID
	tag      string

	created    float64 // clock time StartFlow was called
	totalBytes float64
	remaining  float64
	rate       float64 // bytes/s under the current allocation
	path       [maxPath]*link
	npath      int
	onComplete func()
	crossDC    bool
	srcDC      topology.DCID
	dstDC      topology.DCID
	// tagBytes is the cross-DC byte total of the flow's tag, resolved at
	// its first cross-DC byte.
	tagBytes *float64

	// scratch for reallocate
	frozen bool
}

func (f *flow) links() []*link { return f.path[:f.npath] }

type link struct {
	name   string
	capBps float64 // current capacity, bits/s
	// flows are the active flows crossing the link, in no particular order.
	flows []*flow
	// burstBeta, when positive, degrades effective capacity under
	// concurrent flows (WAN host links only).
	burstBeta float64

	// scratch for reallocate
	remCap   float64
	unfrozen int
	touched  bool
}

// effCapBytes is the capacity available to the current flow set, in
// bytes/s, after burst degradation.
func (l *link) effCapBytes() float64 {
	cap := l.capBps / 8
	if n := len(l.flows); l.burstBeta > 0 && n > 1 {
		cap /= 1 + l.burstBeta*float64(n-1)
	}
	return cap
}

// removeFlow drops f from the link's flow index.
func (l *link) removeFlow(f *flow) {
	for i, g := range l.flows {
		if g == f {
			last := len(l.flows) - 1
			l.flows[i] = l.flows[last]
			l.flows[last] = nil
			l.flows = l.flows[:last]
			return
		}
	}
}

// Network is the flow-level network simulator. Construct with New.
type Network struct {
	clock *sim.Clock
	topo  *topology.Topology
	cfg   Config
	rng   sim.RNG

	nicUp   []*link // per host
	nicDown []*link // per host
	wanUp   []*link // per host WAN share
	wanDown []*link
	// paths holds per host-pair WAN path links, created lazily.
	paths map[pathKey]*link
	// pathsOrder preserves creation order for deterministic jitter
	// application.
	pathsOrder []*link
	pathDCs    []pathKey   // DC pair per pathsOrder entry
	jitterX    [][]float64 // AR(1) state per unordered DC pair
	jitterF    [][]float64 // current capacity factor per DC pair

	flows       []*flow // active flows, creation order
	lastSettle  float64
	completion  sim.Timer
	jitterTimer sim.Timer
	// onTick is onCompletionTick, bound once so that scheduling a
	// completion does not allocate a method value.
	onTick func()

	// scratch for reallocate and onCompletionTick, reused across calls:
	// live holds the links still carrying unfrozen flows.
	live     []*link
	finished []*flow

	bytesByTag     map[string]*float64 // cross-DC bytes only
	bytesByPair    [][]float64         // cross-DC bytes per (srcDC,dstDC)
	totalBytes     float64             // all delivered bytes, any scope
	crossDCBytes   float64
	completedFlows int
	flowObserver   FlowObserver
}

// New builds a network over the given topology. All randomness (jitter)
// derives from seed.
func New(clock *sim.Clock, topo *topology.Topology, seed int64, cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		clock:       clock,
		topo:        topo,
		cfg:         cfg,
		rng:         sim.Stream(seed, "simnet.jitter"),
		bytesByTag:  make(map[string]*float64),
		bytesByPair: make([][]float64, topo.NumDCs()),
	}
	n.onTick = n.onCompletionTick
	for i := range n.bytesByPair {
		n.bytesByPair[i] = make([]float64, topo.NumDCs())
	}
	n.nicUp = make([]*link, topo.NumHosts())
	n.nicDown = make([]*link, topo.NumHosts())
	n.wanUp = make([]*link, topo.NumHosts())
	n.wanDown = make([]*link, topo.NumHosts())
	for _, h := range topo.Hosts {
		n.nicUp[h.ID] = &link{name: fmt.Sprintf("%s/up", h.Name), capBps: h.NICbps}
		n.nicDown[h.ID] = &link{name: fmt.Sprintf("%s/down", h.Name), capBps: h.NICbps}
		wan := cfg.HostWANBps
		if wan > h.NICbps {
			wan = h.NICbps
		}
		n.wanUp[h.ID] = &link{name: fmt.Sprintf("%s/wan-up", h.Name), capBps: wan, burstBeta: cfg.BurstPenalty}
		n.wanDown[h.ID] = &link{name: fmt.Sprintf("%s/wan-down", h.Name), capBps: wan, burstBeta: cfg.BurstPenalty}
	}
	n.paths = make(map[pathKey]*link)
	d := topo.NumDCs()
	n.jitterX = make([][]float64, d)
	n.jitterF = make([][]float64, d)
	for i := 0; i < d; i++ {
		n.jitterX[i] = make([]float64, d)
		n.jitterF[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			n.jitterF[i][j] = 1
		}
	}
	return n
}

type pathKey struct{ a, b int }

// pathLink returns (creating if needed) the WAN path link between two
// hosts in different datacenters. Its base capacity is the paper's
// measured inter-region instance-pair bandwidth, scaled by the DC pair's
// current jitter factor.
func (n *Network) pathLink(src, dst topology.HostID) *link {
	key := pathKey{int(src), int(dst)}
	if l, ok := n.paths[key]; ok {
		return l
	}
	a, b := n.topo.DCOf(src), n.topo.DCOf(dst)
	base := n.topo.InterBps(a, b)
	l := &link{
		name:   fmt.Sprintf("path/%d-%d", src, dst),
		capBps: base * n.jitterF[a][b],
	}
	n.paths[key] = l
	n.pathsOrder = append(n.pathsOrder, l)
	n.pathDCs = append(n.pathDCs, pathKey{int(a), int(b)})
	return l
}

// ensureJitter arms the bandwidth-resample timer. It runs only while flows
// are active so that an idle network leaves the event queue empty and the
// simulation can terminate.
func (n *Network) ensureJitter() {
	if n.cfg.JitterAmplitude <= 0 || n.jitterTimer.Pending() {
		return
	}
	n.jitterTimer = n.clock.After(jitterPeriod, n.resampleJitter)
}

// StartFlow begins a transfer of the given number of bytes. onComplete (may
// be nil) fires when the last byte is delivered; a started flow always runs
// to completion. Zero-byte flows complete after the propagation latency
// alone.
func (n *Network) StartFlow(src, dst topology.HostID, bytes float64, tag string, onComplete func()) {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("simnet: invalid flow size %v", bytes))
	}
	f := &flow{
		src: src, dst: dst, tag: tag,
		created:    n.clock.Now(),
		totalBytes: bytes,
		remaining:  bytes,
		onComplete: onComplete,
		srcDC:      n.topo.DCOf(src),
		dstDC:      n.topo.DCOf(dst),
	}
	f.crossDC = f.srcDC != f.dstDC
	n.setPath(f)
	lat := n.topo.Latency(src, dst)
	n.clock.After(lat, func() { n.activate(f) })
}

func (n *Network) setPath(f *flow) {
	if f.src == f.dst {
		// Same-host transfer: modeled as a private loopback link so it
		// completes in bytes/loopback time without touching the NIC.
		f.path[0], f.npath = &link{name: "loopback", capBps: loopbackBps}, 1
		return
	}
	path := append(f.path[:0], n.nicUp[f.src])
	if f.crossDC {
		path = append(path, n.wanUp[f.src], n.pathLink(f.src, f.dst), n.wanDown[f.dst])
	}
	f.npath = len(append(path, n.nicDown[f.dst]))
}

func (n *Network) activate(f *flow) {
	n.settle()
	n.flows = append(n.flows, f)
	for _, l := range f.links() {
		l.flows = append(l.flows, f)
	}
	n.ensureJitter()
	n.reallocate()
}

func (n *Network) removeFlow(f *flow) {
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
	for _, l := range f.links() {
		l.removeFlow(f)
	}
	f.rate = 0
}

// settle advances every active flow's progress to the current instant and
// accumulates the traffic counters.
func (n *Network) settle() {
	now := n.clock.Now()
	dt := now - n.lastSettle
	n.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		n.account(f, moved)
	}
}

func (n *Network) account(f *flow, bytes float64) {
	if bytes <= 0 {
		return
	}
	n.totalBytes += bytes
	if f.crossDC {
		n.crossDCBytes += bytes
		if f.tagBytes == nil {
			f.tagBytes = n.bytesByTag[f.tag]
			if f.tagBytes == nil {
				f.tagBytes = new(float64)
				n.bytesByTag[f.tag] = f.tagBytes
			}
		}
		*f.tagBytes += bytes
		n.bytesByPair[f.srcDC][f.dstDC] += bytes
	}
}

// FlowObserver receives every completed flow: endpoints, tag, size, and
// the virtual-time window from StartFlow to last-byte delivery. The
// executor derives modeled per-link throughput estimates from it — the
// simulator's counterpart of the live cluster's measured transfer
// samples.
type FlowObserver func(src, dst topology.HostID, tag string, bytes, start, end float64)

// SetFlowObserver installs the flow-completion observer (nil disables).
// It runs inside the simulation loop; observers must not call back into
// the network.
func (n *Network) SetFlowObserver(o FlowObserver) { n.flowObserver = o }

// reallocate recomputes max-min fair rates with progressive filling and
// schedules the next flow completion. Callers must settle() first.
func (n *Network) reallocate() {
	n.maxMinRates()
	n.scheduleCompletion()
}

// maxMinRates sets every active flow's rate to its max-min fair share.
//
// Progressive filling yields the unique max-min fair allocation, so the
// iteration order below matters only for floating-point rounding — which is
// why links are touched in creation order of the flows crossing them, and
// the first link in that order wins a tie for bottleneck. Which order a
// round freezes the bottleneck's flows in does not matter: each link on
// their paths has the same share subtracted once per frozen flow.
func (n *Network) maxMinRates() {
	live := n.live[:0]
	for _, f := range n.flows {
		f.rate = 0
		f.frozen = false
		for _, l := range f.links() {
			if !l.touched {
				l.touched = true
				l.remCap = l.effCapBytes()
				l.unfrozen = 0
				live = append(live, l)
			}
			l.unfrozen++
		}
	}
	for _, l := range live {
		l.touched = false
	}
	remaining := len(n.flows)
	for remaining > 0 {
		// Bottleneck link: minimum fair share among links carrying
		// unfrozen flows. Links left without any are dropped from live,
		// which keeps its order.
		var bottleneck *link
		minShare := math.Inf(1)
		kept := live[:0]
		for _, l := range live {
			if l.unfrozen == 0 {
				continue
			}
			kept = append(kept, l)
			share := l.remCap / float64(l.unfrozen)
			if share < minShare {
				minShare = share
				bottleneck = l
			}
		}
		live = kept
		if bottleneck == nil {
			break
		}
		if minShare < 0 {
			minShare = 0
		}
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.rate = minShare
			f.frozen = true
			remaining--
			for _, l := range f.links() {
				l.remCap -= minShare
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.unfrozen--
			}
		}
	}
	n.live = live
}

func (n *Network) scheduleCompletion() {
	n.completion.Cancel()
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			if f.remaining <= flowEpsilon {
				next = 0
			}
			continue
		}
		eta := f.remaining / f.rate
		if eta < minTick {
			// Below the clock's float resolution near large timestamps a
			// shorter event would not advance time at all, looping the
			// simulation at one instant. Nothing in the model cares about
			// sub-nanosecond transfers.
			eta = minTick
		}
		if eta < next {
			next = eta
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	n.completion = n.clock.After(next, n.onTick)
}

const (
	flowEpsilon = 1e-6 // bytes; guards float drift in completion checks
	minTick     = 1e-9 // seconds; minimum event spacing for completions
)

func (n *Network) onCompletionTick() {
	n.settle()
	finished := n.finished[:0]
	for _, f := range n.flows {
		if f.remaining <= flowEpsilon || f.remaining <= f.rate*2*minTick {
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		n.removeFlow(f)
		f.remaining = 0
		n.completedFlows++
		if n.flowObserver != nil {
			n.flowObserver(f.src, f.dst, f.tag, f.totalBytes, f.created, n.clock.Now())
		}
	}
	n.reallocate()
	// Callbacks run after rates are consistent; they may start new flows,
	// which re-enters settle/reallocate with dt == 0, harmlessly.
	for _, f := range finished {
		if f.onComplete != nil {
			f.onComplete()
		}
	}
	// A callback cannot re-enter this method (a flow it starts activates
	// in a later event), so the scratch is free again here.
	clear(finished)
	n.finished = finished[:0]
}

func (n *Network) resampleJitter() {
	n.settle()
	rho := jitterRho
	amp := n.cfg.JitterAmplitude
	d := n.topo.NumDCs()
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			x := rho*n.jitterX[i][j] + math.Sqrt(1-rho*rho)*n.rng.NormFloat64()
			n.jitterX[i][j] = x
			factor := 1 + amp*x
			lo, hi := 1-2*amp, 1+2*amp
			if lo < 0.1 {
				lo = 0.1
			}
			if factor < lo {
				factor = lo
			}
			if factor > hi {
				factor = hi
			}
			n.jitterF[i][j] = factor
			n.jitterF[j][i] = factor
		}
	}
	for i, l := range n.pathsOrder {
		dcs := n.pathDCs[i]
		base := n.topo.InterBps(topology.DCID(dcs.a), topology.DCID(dcs.b))
		l.capBps = base * n.jitterF[dcs.a][dcs.b]
	}
	n.reallocate()
	if len(n.flows) > 0 {
		n.jitterTimer = n.clock.After(jitterPeriod, n.resampleJitter)
	}
}

// CrossDCBytes returns the total bytes delivered across datacenter
// boundaries so far (including partial progress of in-flight flows).
func (n *Network) CrossDCBytes() float64 {
	n.settle()
	return n.crossDCBytes
}

// CrossDCBytesByTag returns cross-datacenter bytes grouped by flow tag.
func (n *Network) CrossDCBytesByTag() map[string]float64 {
	n.settle()
	out := make(map[string]float64, len(n.bytesByTag))
	for k, v := range n.bytesByTag {
		out[k] = *v
	}
	return out
}

// PairBytes returns cross-DC bytes delivered from DC a to DC b.
func (n *Network) PairBytes(a, b topology.DCID) float64 {
	n.settle()
	return n.bytesByPair[a][b]
}

// TotalBytes returns all delivered bytes, including intra-DC and loopback.
func (n *Network) TotalBytes() float64 {
	n.settle()
	return n.totalBytes
}

// ActiveFlows returns the number of flows currently consuming bandwidth.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// CompletedFlows returns the number of flows that ran to completion.
func (n *Network) CompletedFlows() int { return n.completedFlows }
