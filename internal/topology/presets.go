package topology

// Bandwidth and time units used throughout wanshuffle.
const (
	Mbps = 1e6
	Gbps = 1e9

	Millisecond = 1e-3
)

// Region names of the six EC2 regions used in the paper's evaluation
// (Fig. 6). They are also the DC names in SixRegionEC2.
const (
	Virginia   = "us-east-1"      // N. Virginia — 4 workers + master + namenode
	california = "us-west-1"      // N. California
	saoPaulo   = "sa-east-1"      // São Paulo
	frankfurt  = "eu-central-1"   // Frankfurt
	singapore  = "ap-southeast-1" // Singapore
	sydney     = "ap-southeast-2" // Sydney
)

// SixRegionEC2 reproduces the paper's evaluation cluster: six EC2 regions
// with four m3.large workers each (2 vCPUs), ~1 Gbps intra-region host
// bandwidth, and time-varying inter-region capacity between 80 and 300 Mbps
// (Sec. V-A). The master/driver (and HDFS namenode) sit in N. Virginia.
//
// The base inter-region capacities below follow the rough
// geographic-distance ordering reported by the paper's own measurements and
// the studies it cites (Flutter [8], Bellini [11]): transcontinental and
// transatlantic paths near the top of the 80–300 Mbps band, antipodal paths
// near the bottom. The simnet jitter process modulates them at runtime.
func SixRegionEC2() *Topology {
	b := NewBuilder()
	va := b.AddDC(Virginia, 4, 2, 1*Gbps)
	ca := b.AddDC(california, 4, 2, 1*Gbps)
	sp := b.AddDC(saoPaulo, 4, 2, 1*Gbps)
	fr := b.AddDC(frankfurt, 4, 2, 1*Gbps)
	sg := b.AddDC(singapore, 4, 2, 1*Gbps)
	sy := b.AddDC(sydney, 4, 2, 1*Gbps)

	type link struct {
		a, b DCID
		bps  float64
		ms   float64
	}
	links := []link{
		{va, ca, 280 * Mbps, 32},
		{va, sp, 180 * Mbps, 60},
		{va, fr, 240 * Mbps, 45},
		{va, sg, 120 * Mbps, 110},
		{va, sy, 110 * Mbps, 100},
		{ca, sp, 130 * Mbps, 96},
		{ca, fr, 160 * Mbps, 73},
		{ca, sg, 150 * Mbps, 88},
		{ca, sy, 160 * Mbps, 74},
		{sp, fr, 120 * Mbps, 110},
		{sp, sg, 80 * Mbps, 180},
		{sp, sy, 85 * Mbps, 160},
		{fr, sg, 110 * Mbps, 117},
		{fr, sy, 80 * Mbps, 150},
		{sg, sy, 170 * Mbps, 46},
	}
	for _, l := range links {
		b.Link(l.a, l.b, l.bps, l.ms*Millisecond)
	}
	// Two dedicated instances in N. Virginia: Spark master and HDFS
	// namenode (Fig. 6: "two extra special nodes deployed").
	b.AddAux("master", va, 1*Gbps)
	b.AddAux("namenode", va, 1*Gbps)
	b.IntraLatency(0.5 * Millisecond)
	b.Driver(va)
	t, err := b.Build()
	if err != nil {
		// The preset is a compile-time constant; failure to build it is a
		// programming error, not a runtime condition.
		panic(err)
	}
	return t
}

// TwoDCMicro builds a small two-datacenter topology: two 2-core hosts in
// each DC, the driver in dc-b, and the inter-DC path at ¼ of the 1 Gbps
// host NIC rate. It is wansim's `-topology micro`; the Figs. 1–2
// micro-scenario runs on internal/bench's own three-worker topology.
func TwoDCMicro() *Topology {
	const nic = 1 * Gbps
	b := NewBuilder()
	a := b.AddDC("dc-a", 2, 2, nic)
	c := b.AddDC("dc-b", 2, 2, nic)
	b.Link(a, c, nic/4, 40*Millisecond)
	b.IntraLatency(0.5 * Millisecond)
	b.Driver(c)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
