// Package topology describes the physical layout of a geo-distributed
// cluster: datacenters (regions), worker hosts, host NIC capacities, and the
// inter-datacenter bandwidth and latency matrices.
//
// The package is pure data; the flow-level network model lives in
// internal/simnet and the execution model in internal/exec.
package topology

import "fmt"

// HostID identifies a host within a Topology. IDs are dense indexes into
// Topology.Hosts.
type HostID int

// DCID identifies a datacenter within a Topology. IDs are dense indexes into
// Topology.DCs.
type DCID int

// host is a single machine. Aux hosts (cluster master, namenode) carry
// control traffic and collect results but never run tasks.
type host struct {
	ID    HostID
	Name  string
	DC    DCID
	Cores int
	// NICbps is the host network interface capacity in bits per second,
	// applied to both ingress and egress independently.
	NICbps float64
	// Aux marks non-worker hosts (master, namenode).
	Aux bool
}

// dc is a datacenter (cloud region) holding a set of hosts.
type dc struct {
	ID    DCID
	Name  string
	Hosts []HostID
}

// Topology is an immutable cluster description.
type Topology struct {
	DCs   []dc
	Hosts []host

	// interBps[i][j] is the base bottleneck capacity, in bits per second, of
	// the wide-area path from DC i to DC j. The diagonal is 0 (intra-DC
	// traffic is constrained only by host NICs).
	interBps [][]float64
	// latency[i][j] is the one-way propagation delay in seconds from DC i to
	// DC j. The diagonal holds the intra-DC delay.
	latency [][]float64

	// DriverDC hosts the cluster master (job driver); results of collect()
	// actions are shipped here.
	DriverDC DCID
	// MasterHost is the driver endpoint for result traffic. If no aux
	// master was added it falls back to the first worker in DriverDC.
	MasterHost HostID
	hasMaster  bool
}

// builder accumulates a topology definition.
type builder struct {
	t    Topology
	errs []error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *builder {
	return &builder{}
}

// AddDC adds a datacenter with n identical hosts and returns its ID.
func (b *builder) AddDC(name string, hosts, coresPerHost int, nicBps float64) DCID {
	if hosts <= 0 || coresPerHost <= 0 || nicBps <= 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: invalid DC %q (hosts=%d cores=%d nic=%v)", name, hosts, coresPerHost, nicBps))
	}
	id := DCID(len(b.t.DCs))
	dc := dc{ID: id, Name: name}
	for i := 0; i < hosts; i++ {
		hid := HostID(len(b.t.Hosts))
		b.t.Hosts = append(b.t.Hosts, host{
			ID:     hid,
			Name:   fmt.Sprintf("%s-w%d", name, i),
			DC:     id,
			Cores:  coresPerHost,
			NICbps: nicBps,
		})
		dc.Hosts = append(dc.Hosts, hid)
	}
	b.t.DCs = append(b.t.DCs, dc)
	return id
}

// AddAux adds a non-worker host (e.g. master or namenode) to a datacenter
// and returns its ID. The first aux host added becomes the master endpoint.
func (b *builder) AddAux(name string, dc DCID, nicBps float64) HostID {
	if int(dc) >= len(b.t.DCs) || nicBps <= 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: invalid aux host %q", name))
		return 0
	}
	hid := HostID(len(b.t.Hosts))
	b.t.Hosts = append(b.t.Hosts, host{
		ID: hid, Name: name, DC: dc, Cores: 0, NICbps: nicBps, Aux: true,
	})
	b.t.DCs[dc].Hosts = append(b.t.DCs[dc].Hosts, hid)
	if !b.t.hasMaster {
		b.t.MasterHost = hid
		b.t.hasMaster = true
	}
	return hid
}

// Link sets the symmetric inter-DC base bandwidth (bits/s) and one-way
// latency (seconds) between two datacenters.
func (b *builder) Link(a, c DCID, bps, latencySec float64) {
	b.ensureMatrices()
	if int(a) >= len(b.t.DCs) || int(c) >= len(b.t.DCs) || a == c {
		b.errs = append(b.errs, fmt.Errorf("topology: bad link %d-%d", a, c))
		return
	}
	if bps <= 0 || latencySec < 0 {
		b.errs = append(b.errs, fmt.Errorf("topology: bad link params %v bps %v s", bps, latencySec))
		return
	}
	b.t.interBps[a][c] = bps
	b.t.interBps[c][a] = bps
	b.t.latency[a][c] = latencySec
	b.t.latency[c][a] = latencySec
}

// IntraLatency sets the intra-DC one-way delay for every datacenter.
func (b *builder) IntraLatency(sec float64) {
	b.ensureMatrices()
	for i := range b.t.DCs {
		b.t.latency[i][i] = sec
	}
}

// Driver designates the datacenter hosting the cluster master.
func (b *builder) Driver(dc DCID) { b.t.DriverDC = dc }

func (b *builder) ensureMatrices() {
	n := len(b.t.DCs)
	if len(b.t.interBps) == n {
		return
	}
	inter := make([][]float64, n)
	lat := make([][]float64, n)
	for i := 0; i < n; i++ {
		inter[i] = make([]float64, n)
		lat[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i < len(b.t.interBps) && j < len(b.t.interBps[i]) {
				inter[i][j] = b.t.interBps[i][j]
				lat[i][j] = b.t.latency[i][j]
			}
		}
	}
	b.t.interBps = inter
	b.t.latency = lat
}

// Build validates and returns the topology. Every distinct DC pair must have
// a link defined.
func (b *builder) Build() (*Topology, error) {
	b.ensureMatrices()
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.t.DCs) == 0 {
		return nil, fmt.Errorf("topology: no datacenters")
	}
	for i := range b.t.DCs {
		for j := range b.t.DCs {
			if i != j && b.t.interBps[i][j] <= 0 {
				return nil, fmt.Errorf("topology: missing link %s-%s", b.t.DCs[i].Name, b.t.DCs[j].Name)
			}
		}
	}
	if int(b.t.DriverDC) >= len(b.t.DCs) {
		return nil, fmt.Errorf("topology: driver DC %d out of range", b.t.DriverDC)
	}
	if !b.t.hasMaster {
		workers := b.t.workersIn(b.t.DriverDC)
		if len(workers) == 0 {
			return nil, fmt.Errorf("topology: driver DC %s has no hosts", b.t.DCs[b.t.DriverDC].Name)
		}
		b.t.MasterHost = workers[0]
	}
	t := b.t
	return &t, nil
}

// NumDCs returns the number of datacenters.
func (t *Topology) NumDCs() int { return len(t.DCs) }

// NumHosts returns the number of hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// Host returns the host record for id.
func (t *Topology) Host(id HostID) host { return t.Hosts[id] }

// DCOf returns the datacenter of a host.
func (t *Topology) DCOf(id HostID) DCID { return t.Hosts[id].DC }

// HostsIn returns the worker hosts located in dc, in ID order. Aux hosts
// are excluded: they never run tasks or store blocks.
func (t *Topology) HostsIn(dc DCID) []HostID {
	return t.workersIn(dc)
}

func (t *Topology) workersIn(dc DCID) []HostID {
	var out []HostID
	for _, h := range t.DCs[dc].Hosts {
		if !t.Hosts[h].Aux {
			out = append(out, h)
		}
	}
	return out
}

// Workers returns all worker hosts across the cluster, in ID order.
func (t *Topology) Workers() []HostID {
	var out []HostID
	for _, h := range t.Hosts {
		if !h.Aux {
			out = append(out, h.ID)
		}
	}
	return out
}

// InterBps returns the base wide-area capacity between two distinct DCs in
// bits per second.
func (t *Topology) InterBps(a, b DCID) float64 { return t.interBps[a][b] }

// Latency returns the one-way propagation delay in seconds between the DCs
// of two hosts (intra-DC delay if they share a datacenter).
func (t *Topology) Latency(a, b HostID) float64 {
	return t.latency[t.Hosts[a].DC][t.Hosts[b].DC]
}

// DCLatency returns the one-way propagation delay between two DCs.
func (t *Topology) DCLatency(a, b DCID) float64 { return t.latency[a][b] }

// DCByName returns the datacenter with the given name.
func (t *Topology) DCByName(name string) (DCID, bool) {
	for _, dc := range t.DCs {
		if dc.Name == name {
			return dc.ID, true
		}
	}
	return 0, false
}

// DCNames returns datacenter names in ID order.
func (t *Topology) DCNames() []string {
	names := make([]string, len(t.DCs))
	for i, dc := range t.DCs {
		names[i] = dc.Name
	}
	return names
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("topology{%d DCs, %d hosts, driver=%s}", len(t.DCs), len(t.Hosts), t.DCs[t.DriverDC].Name)
}
