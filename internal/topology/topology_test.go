package topology

import (
	"strings"
	"testing"
)

func TestSixRegionEC2Shape(t *testing.T) {
	top := SixRegionEC2()
	if got := top.NumDCs(); got != 6 {
		t.Fatalf("NumDCs() = %d, want 6", got)
	}
	if got := top.NumHosts(); got != 26 {
		t.Fatalf("NumHosts() = %d, want 26 (24 workers + master + namenode)", got)
	}
	if got := len(top.Workers()); got != 24 {
		t.Fatalf("Workers() = %d, want 24", got)
	}
	for _, dc := range top.DCs {
		if got := len(top.HostsIn(dc.ID)); got != 4 {
			t.Fatalf("DC %s has %d workers, want 4", dc.Name, got)
		}
		cores := 0
		for _, h := range top.HostsIn(dc.ID) {
			cores += top.Host(h).Cores
		}
		if cores != 8 {
			t.Fatalf("DC %s has %d cores, want 8 (paper: parallelism 8 per DC)", dc.Name, cores)
		}
	}
	va, ok := top.DCByName(Virginia)
	if !ok {
		t.Fatal("Virginia not found")
	}
	if top.DriverDC != va {
		t.Fatalf("driver DC = %d, want Virginia (%d)", top.DriverDC, va)
	}
	master := top.Host(top.MasterHost)
	if !master.Aux || master.DC != va {
		t.Fatalf("master host = %+v, want aux host in Virginia", master)
	}
}

func TestMasterFallsBackToWorker(t *testing.T) {
	top := TwoDCMicro()
	m := top.Host(top.MasterHost)
	if m.Aux {
		t.Fatal("micro topology should fall back to a worker master")
	}
	if m.DC != top.DriverDC {
		t.Fatalf("master in DC %d, want driver DC %d", m.DC, top.DriverDC)
	}
}

func TestSixRegionBandwidthBand(t *testing.T) {
	top := SixRegionEC2()
	for i := 0; i < top.NumDCs(); i++ {
		for j := 0; j < top.NumDCs(); j++ {
			if i == j {
				continue
			}
			bps := top.InterBps(DCID(i), DCID(j))
			if bps < 80*Mbps || bps > 300*Mbps {
				t.Errorf("link %d-%d = %.0f Mbps outside the paper's 80-300 Mbps band", i, j, bps/Mbps)
			}
			if bps != top.InterBps(DCID(j), DCID(i)) {
				t.Errorf("link %d-%d asymmetric", i, j)
			}
		}
	}
}

func TestLatencyMatrix(t *testing.T) {
	top := SixRegionEC2()
	h0 := top.DCs[0].Hosts[0]
	h1 := top.DCs[0].Hosts[1]
	if got := top.Latency(h0, h1); got != 0.5*Millisecond {
		t.Fatalf("intra-DC latency = %v, want 0.5ms", got)
	}
	other := top.DCs[1].Hosts[0]
	if got := top.Latency(h0, other); got <= 1*Millisecond {
		t.Fatalf("inter-DC latency = %v, want wide-area scale", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	b.AddDC("a", 1, 1, 1*Gbps)
	b.AddDC("b", 1, 1, 1*Gbps)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() with missing link succeeded, want error")
	}

	b2 := NewBuilder()
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build() with no DCs succeeded, want error")
	}

	b3 := NewBuilder()
	b3.AddDC("a", 0, 1, 1*Gbps)
	if _, err := b3.Build(); err == nil {
		t.Fatal("Build() with zero hosts succeeded, want error")
	}
}

func TestBuilderBadLink(t *testing.T) {
	b := NewBuilder()
	a := b.AddDC("a", 1, 1, 1*Gbps)
	b.Link(a, a, 1*Mbps, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-link accepted, want error")
	}
}

func TestTwoDCMicro(t *testing.T) {
	top := TwoDCMicro()
	if top.NumDCs() != 2 || top.NumHosts() != 4 {
		t.Fatalf("micro topology = %d DCs %d hosts, want 2/4", top.NumDCs(), top.NumHosts())
	}
	nic := top.Host(0).NICbps
	if got := top.InterBps(0, 1); got != nic/4 {
		t.Fatalf("inter-DC = %v, want NIC/4 = %v (Fig. 1 assumption)", got, nic/4)
	}
}

func TestHostsInReturnsCopy(t *testing.T) {
	top := SixRegionEC2()
	hosts := top.HostsIn(0)
	hosts[0] = HostID(999)
	if top.DCs[0].Hosts[0] == HostID(999) {
		t.Fatal("HostsIn returned internal slice")
	}
}

func TestDCOfAndString(t *testing.T) {
	top := SixRegionEC2()
	for _, h := range top.Hosts {
		if top.DCOf(h.ID) != h.DC {
			t.Fatalf("DCOf(%d) mismatch", h.ID)
		}
	}
	if s := top.String(); !strings.Contains(s, "6 DCs") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDCByNameMissing(t *testing.T) {
	top := SixRegionEC2()
	if _, ok := top.DCByName("mars-north-1"); ok {
		t.Fatal("found nonexistent DC")
	}
}
