// Package simnet models a geo-distributed network at flow level on top of
// the discrete-event kernel in internal/sim.
//
// Every transfer is a Flow from one host to another. An intra-datacenter
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
// a flow starts or finishes and whenever wide-area capacity changes.
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

// Flow is an in-progress transfer. Flows are created with Network.StartFlow
// and must not be constructed directly.
type Flow struct {
	Src, Dst topology.HostID
	Tag      string

	seq        uint64
	created    float64 // clock time StartFlow was called
	totalBytes float64
	remaining  float64
	rate       float64 // bytes/s under the current allocation
	path       []*link
	onComplete func()
	active     bool // latency elapsed, consuming bandwidth
	done       bool
	cancelled  bool
	crossDC    bool
	srcDC      topology.DCID
	dstDC      topology.DCID
	activation sim.Timer

	// scratch for reallocate
	frozen bool
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

type link struct {
	name   string
	capBps float64 // current capacity, bits/s
	nflows int
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
	if l.burstBeta > 0 && l.nflows > 1 {
		cap /= 1 + l.burstBeta*float64(l.nflows-1)
	}
	return cap
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

	flows       []*Flow // active flows, creation order
	flowSeq     uint64
	lastSettle  float64
	completion  sim.Timer
	jitterTimer sim.Timer

	bytesByTag     map[string]float64 // cross-DC bytes only
	tagOrder       []string
	bytesByPair    [][]float64 // cross-DC bytes per (srcDC,dstDC)
	totalBytes     float64     // all delivered bytes, any scope
	crossDCBytes   float64
	completedFlows int
	observer       DeliveryObserver
	flowObserver   FlowObserver

	util []UtilPoint
}

// UtilPoint is one step of the aggregate cross-datacenter rate timeline:
// from T onward (until the next point) the WAN moved CrossRate bytes/s.
type UtilPoint struct {
	T         float64
	CrossRate float64
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
		bytesByTag:  make(map[string]float64),
		bytesByPair: make([][]float64, topo.NumDCs()),
	}
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
// be nil) fires when the last byte is delivered. Zero-byte flows complete
// after the propagation latency alone.
func (n *Network) StartFlow(src, dst topology.HostID, bytes float64, tag string, onComplete func()) *Flow {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("simnet: invalid flow size %v", bytes))
	}
	n.flowSeq++
	f := &Flow{
		Src: src, Dst: dst, Tag: tag,
		seq:        n.flowSeq,
		created:    n.clock.Now(),
		totalBytes: bytes,
		remaining:  bytes,
		onComplete: onComplete,
		srcDC:      n.topo.DCOf(src),
		dstDC:      n.topo.DCOf(dst),
	}
	f.crossDC = f.srcDC != f.dstDC
	f.path = n.pathFor(f)
	lat := n.topo.Latency(src, dst)
	f.activation = n.clock.After(lat, func() { n.activate(f) })
	return f
}

func (n *Network) pathFor(f *Flow) []*link {
	if f.Src == f.Dst {
		// Same-host transfer: modeled as a private loopback link so it
		// completes in bytes/loopback time without touching the NIC.
		return []*link{{name: "loopback", capBps: loopbackBps}}
	}
	path := []*link{n.nicUp[f.Src]}
	if f.crossDC {
		path = append(path, n.wanUp[f.Src], n.pathLink(f.Src, f.Dst), n.wanDown[f.Dst])
	}
	return append(path, n.nicDown[f.Dst])
}

func (n *Network) activate(f *Flow) {
	if f.cancelled {
		return
	}
	n.settle()
	f.active = true
	n.flows = append(n.flows, f)
	for _, l := range f.path {
		l.nflows++
	}
	n.ensureJitter()
	n.reallocate()
}

// Cancel aborts a flow; bytes already delivered stay counted, no completion
// callback fires. Used for failure injection (aborting in-flight fetches).
func (n *Network) Cancel(f *Flow) {
	if f.done || f.cancelled {
		return
	}
	f.cancelled = true
	f.activation.Cancel()
	if f.active {
		n.settle()
		n.removeFlow(f)
		n.reallocate()
	}
}

func (n *Network) removeFlow(f *Flow) {
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
	for _, l := range f.path {
		l.nflows--
	}
	f.active = false
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

func (n *Network) account(f *Flow, bytes float64) {
	if bytes <= 0 {
		return
	}
	n.totalBytes += bytes
	if f.crossDC {
		n.crossDCBytes += bytes
		if _, ok := n.bytesByTag[f.Tag]; !ok {
			n.tagOrder = append(n.tagOrder, f.Tag)
		}
		n.bytesByTag[f.Tag] += bytes
		n.bytesByPair[f.srcDC][f.dstDC] += bytes
	}
	if n.observer != nil {
		n.observer(f.Tag, bytes, f.crossDC)
	}
}

// DeliveryObserver receives every delivered byte increment as it is
// accounted: the flow's tag, the bytes just delivered (possibly
// fractional — flows settle continuously), and whether the flow crosses a
// datacenter boundary. The executor mirrors these increments into its
// metrics registry so mid-run scrapes see bytes move.
type DeliveryObserver func(tag string, bytes float64, crossDC bool)

// SetDeliveryObserver installs the delivery observer (nil disables). It is
// invoked from inside the simulation loop; observers must not call back
// into the network.
func (n *Network) SetDeliveryObserver(o DeliveryObserver) { n.observer = o }

// FlowObserver receives every completed flow: endpoints, tag, size, and
// the virtual-time window from StartFlow to last-byte delivery. The
// executor derives modeled per-link throughput estimates from it — the
// simulator's counterpart of the live cluster's measured transfer
// samples.
type FlowObserver func(src, dst topology.HostID, tag string, bytes, start, end float64)

// SetFlowObserver installs the flow-completion observer (nil disables).
// Like DeliveryObserver it runs inside the simulation loop; observers
// must not call back into the network.
func (n *Network) SetFlowObserver(o FlowObserver) { n.flowObserver = o }

// reallocate recomputes max-min fair rates with progressive filling and
// schedules the next flow completion. Callers must settle() first.
//
// Progressive filling yields the unique max-min fair allocation, so the
// iteration order below matters only for floating-point rounding — which is
// why it runs over creation-ordered slices.
func (n *Network) reallocate() {
	var touched []*link
	touch := func(l *link) {
		if !l.touched {
			l.touched = true
			l.remCap = l.effCapBytes()
			l.unfrozen = 0
			touched = append(touched, l)
		}
	}
	for _, f := range n.flows {
		f.rate = 0
		f.frozen = false
		for _, l := range f.path {
			touch(l)
			l.unfrozen++
		}
	}
	remaining := len(n.flows)
	for remaining > 0 {
		// Bottleneck link: minimum fair share among links carrying
		// unfrozen flows.
		var bottleneck *link
		minShare := math.Inf(1)
		for _, l := range touched {
			if l.unfrozen == 0 {
				continue
			}
			share := l.remCap / float64(l.unfrozen)
			if share < minShare {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		if minShare < 0 {
			minShare = 0
		}
		for _, f := range n.flows {
			if f.frozen {
				continue
			}
			onBottleneck := false
			for _, l := range f.path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			f.rate = minShare
			f.frozen = true
			remaining--
			for _, l := range f.path {
				l.remCap -= minShare
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.unfrozen--
			}
		}
	}
	for _, l := range touched {
		l.touched = false
	}
	var crossRate float64
	for _, f := range n.flows {
		if f.crossDC {
			crossRate += f.rate
		}
	}
	if len(n.util) == 0 || n.util[len(n.util)-1].CrossRate != crossRate {
		n.util = append(n.util, UtilPoint{T: n.clock.Now(), CrossRate: crossRate})
	}
	n.scheduleCompletion()
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
	n.completion = n.clock.After(next, n.onCompletionTick)
}

const (
	flowEpsilon = 1e-6 // bytes; guards float drift in completion checks
	minTick     = 1e-9 // seconds; minimum event spacing for completions
)

func (n *Network) onCompletionTick() {
	n.settle()
	var finished []*Flow
	for _, f := range n.flows {
		if f.remaining <= flowEpsilon || f.remaining <= f.rate*2*minTick {
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		n.removeFlow(f)
		f.done = true
		f.remaining = 0
		n.completedFlows++
		if n.flowObserver != nil {
			n.flowObserver(f.Src, f.Dst, f.Tag, f.totalBytes, f.created, n.clock.Now())
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
		out[k] = v
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

// UtilTimeline returns the aggregate cross-DC rate as a step function over
// time — the data behind the paper's Sec. II-B observation that fetch-based
// shuffles leave wide-area links idle until the stage barrier, then burst.
func (n *Network) UtilTimeline() []UtilPoint {
	out := make([]UtilPoint, len(n.util))
	copy(out, n.util)
	return out
}

// CrossBytesBetween integrates the utilization timeline over [t0, t1),
// returning the cross-DC bytes moved in that window.
func CrossBytesBetween(points []UtilPoint, t0, t1 float64) float64 {
	var total float64
	for i, p := range points {
		end := t1
		if i+1 < len(points) && points[i+1].T < end {
			end = points[i+1].T
		}
		start := p.T
		if start < t0 {
			start = t0
		}
		if end > start {
			total += p.CrossRate * (end - start)
		}
	}
	return total
}

// ActiveFlows returns the number of flows currently consuming bandwidth.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// CompletedFlows returns the number of flows that ran to completion.
func (n *Network) CompletedFlows() int { return n.completedFlows }
