package livecluster

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// poolServer accepts connections on loopback and tracks them so tests can
// observe how many were dialed and whether the client closed them. With a
// script, each accepted connection is served by script(s, i, conn), i being
// its place in accept order; without one it is just held open.
type poolServer struct {
	ln     net.Listener
	script func(s *poolServer, i int, conn net.Conn)
	// carried counts the bytes the scripted side read and wrote.
	carried atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func newPoolServer(t *testing.T, script func(s *poolServer, i int, conn net.Conn)) *poolServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &poolServer{ln: ln, script: script}
	t.Cleanup(func() {
		_ = ln.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			i := len(s.conns)
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			if s.script != nil {
				go s.script(s, i, c)
			}
		}
	}()
	return s
}

func (s *poolServer) addr() string { return s.ln.Addr().String() }

// link returns a link to the server the way the cluster wires one: an
// address, the running record it accounts into — here one of its own, for
// worker 0's link to worker 1 — and nothing else needed.
func (s *poolServer) link() *link {
	stats := &Stats{
		trafficMatrix: [][]int64{{0, 0}, {0, 0}},
		bytesByClass:  map[string]int64{},
		links:         netobs.NewEstimator(netobs.Config{}),
	}
	return &link{src: 0, dst: 1, addr: s.addr(), stats: func() *Stats { return stats }}
}

func (s *poolServer) accepted(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == want {
			return
		}
		if n > want || time.Now().After(deadline) {
			t.Fatalf("server accepted %d connections, want %d", n, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// allClosedByPeer fails unless every accepted connection reads EOF — i.e.
// the client side closed them all.
func (s *poolServer) allClosedByPeer(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	conns := append([]net.Conn(nil), s.conns...)
	s.mu.Unlock()
	for i, c := range conns {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("connection %d not closed by client: read err = %v", i, err)
		}
	}
}

// answer serves n four-byte pings on conn with four-byte replies. It
// reports whether all n were served.
func (s *poolServer) answer(conn net.Conn, n int) bool {
	for ; n > 0; n-- {
		if !s.readPing(conn) {
			return false
		}
		w, err := conn.Write([]byte("pong"))
		s.carried.Add(int64(w))
		if err != nil {
			return false
		}
	}
	return true
}

func (s *poolServer) readPing(conn net.Conn) bool {
	n, err := io.ReadFull(conn, make([]byte, 4))
	s.carried.Add(int64(n))
	return err == nil
}

// ping is the client half of poolServer.answer, in the shape link.exchange
// runs: four bytes out, four back, no compression savings.
func ping(calls *int) func(*pooledConn) (int64, error) {
	return func(pc *pooledConn) (int64, error) {
		*calls++
		if _, err := pc.conn.Write([]byte("ping")); err != nil {
			return 0, err
		}
		_, err := io.ReadFull(pc.br, make([]byte, 4))
		return 0, err
	}
}

// TestPoolReusesIdleConnections checks a returned connection is handed
// back out instead of dialing again, that get reports its provenance, and
// that the one dial is accounted.
func TestPoolReusesIdleConnections(t *testing.T) {
	srv := newPoolServer(t, nil)
	l := srv.link()
	defer l.closeAll()

	pc1, pooled, err := l.get()
	if err != nil {
		t.Fatal(err)
	}
	if pooled {
		t.Fatal("first get claims the connection came from the pool")
	}
	srv.accepted(t, 1)

	l.put(pc1)
	pc2, pooled, err := l.get()
	if err != nil {
		t.Fatal(err)
	}
	if !pooled || pc2 != pc1 {
		t.Fatalf("second get: pooled=%v, same conn=%v; want reuse", pooled, pc2 == pc1)
	}
	srv.accepted(t, 1) // still just one dial
	l.put(pc2)
	if dials := l.stats().Dials; dials != 1 {
		t.Fatalf("%d dials accounted, want 1", dials)
	}
}

// TestFirstDialFillsThePool pins when a link dials (link.go's header): the
// first exchange dials the link's whole width and pools the spares, so
// however many of the source's task slots then use the link at once — width
// at most — none of them dials; and a link with no width set dials one
// connection at a time.
func TestFirstDialFillsThePool(t *testing.T) {
	const width = 3
	srv := newPoolServer(t, func(srv *poolServer, _ int, conn net.Conn) { srv.answer(conn, 1<<30) })
	l := srv.link()
	l.width = width
	defer l.closeAll()

	calls := 0
	if err := l.exchange("push", ping(&calls)); err != nil {
		t.Fatal(err)
	}
	srv.accepted(t, width)
	if dials := l.stats().Dials; dials != width {
		t.Fatalf("first exchange accounted %d dials, want the link's width %d", dials, width)
	}

	// width exchanges in flight at once, the most the source's task slots can
	// ask for, five rounds of them: every one finds a pooled connection.
	for round := 0; round < 5; round++ {
		held := make([]*pooledConn, width)
		for i := range held {
			pc, pooled, err := l.get()
			if err != nil || !pooled {
				t.Fatalf("round %d: get %d of %d concurrent ones: pooled=%v, err=%v", round, i, width, pooled, err)
			}
			held[i] = pc
		}
		var wg sync.WaitGroup
		for _, pc := range held {
			wg.Add(1)
			go func(pc *pooledConn) {
				defer wg.Done()
				n := 0
				if broken, err := l.attempt(pc, "push", ping(&n)); broken || err != nil {
					t.Errorf("round %d: exchange on a pooled connection: broken=%v, err=%v", round, broken, err)
				}
			}(pc)
		}
		wg.Wait()
	}
	srv.accepted(t, width)
	if dials := l.stats().Dials - width; dials != 0 {
		t.Fatalf("a warm link dialed %d more connections under %d concurrent exchanges", dials, width)
	}

	// Only the first dial fills: once the pool has been emptied (closeAll,
	// or connections that broke), the next get replaces one connection.
	l.closeAll()
	pc, pooled, err := l.get()
	if err != nil || pooled {
		t.Fatalf("get on an emptied link: pooled=%v, err=%v", pooled, err)
	}
	l.put(pc)
	srv.accepted(t, width+1)
}

// TestPoolCloseAllEvicts checks closeAll closes every idle connection and
// empties the pool, so the next get dials fresh.
func TestPoolCloseAllEvicts(t *testing.T) {
	srv := newPoolServer(t, nil)
	l := srv.link()

	var held []*pooledConn
	for i := 0; i < 3; i++ {
		pc, _, err := l.get()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, pc)
	}
	srv.accepted(t, 3)
	for _, pc := range held {
		l.put(pc)
	}
	l.closeAll()

	l.mu.Lock()
	idle := l.idle
	l.mu.Unlock()
	if idle != nil {
		t.Fatalf("idle connections not cleared after closeAll: %v", idle)
	}
	srv.allClosedByPeer(t)

	pc, pooled, err := l.get()
	if err != nil {
		t.Fatal(err)
	}
	if pooled {
		t.Fatal("get after closeAll returned an evicted connection")
	}
	srv.accepted(t, 4)
	pc.close()
}

// TestRetriedExchangeAccountsBothAttempts has the peer close a pooled
// connection after the next request is written to it: the exchange is
// retried exactly once, on a fresh connection, and the broken attempt's
// bytes stay in the accounting — flows add up to what the sockets carried —
// while only answered exchanges leave a transfer sample.
func TestRetriedExchangeAccountsBothAttempts(t *testing.T) {
	srv := newPoolServer(t, func(srv *poolServer, i int, conn net.Conn) {
		if i == 0 {
			// One good exchange, so the connection is pooled; then read
			// the next request and hang up on it.
			if srv.answer(conn, 1) && srv.readPing(conn) {
				_ = conn.Close()
			}
			return
		}
		srv.answer(conn, 1)
	})
	l := srv.link()
	defer l.closeAll()
	calls := 0
	for i := 0; i < 2; i++ {
		if err := l.exchange("push", ping(&calls)); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	srv.accepted(t, 2)
	if calls != 3 {
		t.Fatalf("exchange body ran %d times over two exchanges, want 3 (one transparent retry)", calls)
	}
	st := l.stats()
	if samples := estimatorSamples(st.links); st.Dials != 2 || samples != 2 || st.PushConnections != 2 {
		t.Fatalf("%d dials, %d transfer samples, %d pushes; want 2, 2 (the broken attempt has no rate) and 2", st.Dials, samples, st.PushConnections)
	}
	if st.trafficMatrix[0][1] != 20 || st.bytesByClass["push"] != 20 || st.BytesOverTCP != 20 || st.BytesRaw != 20 {
		t.Fatalf("matrix %v, classes %v, %d wire and %d raw bytes; want one 0→1 push cell of 20 bytes (8 + the broken attempt's 4 + 8)",
			st.trafficMatrix, st.bytesByClass, st.BytesOverTCP, st.BytesRaw)
	}
	if got := srv.carried.Load(); got != st.BytesOverTCP {
		t.Fatalf("sockets carried %d bytes, flows account %d", got, st.BytesOverTCP)
	}
}

// TestTimedOutExchangeIsNotRetried stalls the peer under a pooled
// connection: the exchange fails at its I/O deadline and is not run again —
// a hung peer would only burn a second deadline — though what it wrote is
// still accounted.
func TestTimedOutExchangeIsNotRetried(t *testing.T) {
	srv := newPoolServer(t, func(srv *poolServer, _ int, conn net.Conn) {
		if srv.answer(conn, 1) {
			srv.readPing(conn) // and never answer
		}
	})
	l := srv.link()
	l.ioTimeout = 50 * time.Millisecond
	defer l.closeAll()
	calls := 0
	if err := l.exchange("shuffle", ping(&calls)); err != nil {
		t.Fatal(err)
	}
	err := l.exchange("shuffle", ping(&calls))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("exchange with a stalled peer: err = %v, want a timeout", err)
	}
	if calls != 2 {
		t.Fatalf("exchange body ran %d times, want 2 (no retry after a timeout)", calls)
	}
	st := l.stats()
	if samples := estimatorSamples(st.links); st.Dials != 1 || samples != 1 || st.FetchConnections != 1 || st.trafficMatrix[0][1] != 12 {
		t.Fatalf("dials %d, samples %d, fetches %d, matrix %v; want 1, 1, 1 and 12 bytes 0→1", st.Dials, samples, st.FetchConnections, st.trafficMatrix)
	}
}

// TestClusterCloseLeaksNoConnections runs a job, closes the cluster, and
// checks every worker's links are empty — no idle sockets outlive Close. On
// the way it holds the wiring to its rule: a link to every other worker,
// TasksPerWorker wide, and none to oneself.
func TestClusterCloseLeaksNoConnections(t *testing.T) {
	cluster, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := pushed(rdd.RandomLineage(1, rdd.NewGraph(), topology.SixRegionEC2().Workers()))
	if _, _, err := cluster.Run(job); err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	workers := cluster.workers
	cluster.Close()
	for i, w := range workers {
		for j, l := range w.links {
			if (l == nil) != (i == j) {
				t.Fatalf("worker %d's link to worker %d: %v; want one to every other worker and none to itself", i, j, l)
			}
			if l == nil {
				continue
			}
			if l.src != i || l.dst != j || l.width != cluster.cfg.TasksPerWorker {
				t.Fatalf("worker %d's link to worker %d is wired %d→%d, %d wide", i, j, l.src, l.dst, l.width)
			}
			l.mu.Lock()
			idle := len(l.idle)
			l.mu.Unlock()
			if idle != 0 {
				t.Fatalf("worker %d still holds %d idle connections to worker %d after Close", i, idle, l.dst)
			}
		}
	}
}

// TestShapedRateIsPerLink pushes one ~100 KB map output across a shaped
// 8 Mbps link, and then two such outputs from two concurrent tasks of one
// worker: the link's bucket is shared by every connection on it, so however
// the bytes are spread they take at least their transmission time at the
// configured rate.
func TestShapedRateIsPerLink(t *testing.T) {
	const rate = 8 * topology.Mbps
	b := topology.NewBuilder()
	dcA := b.AddDC("dc-a", 1, 2, 1*topology.Gbps)
	dcB := b.AddDC("dc-b", 1, 2, 1*topology.Gbps)
	b.Link(dcA, dcB, rate, 10*topology.Millisecond)
	b.Driver(dcA)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	output := pairs(3000)
	for _, tc := range []struct {
		name  string
		tasks int
	}{
		{"fanout 1", 1}, // one push is one stream: the only fan-out there is
		{"two concurrent tasks", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := streamCluster(t, Config{Workers: 2, WANTopology: topo, ChunkRecords: 64}, 1)
			start := time.Now()
			errs := make(chan error, tc.tasks)
			for m := 0; m < tc.tasks; m++ {
				go func(m int) {
					_, err := c.workers[0].push(1, 7, m, 1, output, spanCtx{})
					errs <- err
				}(m)
			}
			for m := 0; m < tc.tasks; m++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			elapsed := time.Since(start).Seconds()
			stats := flushed(c)
			sent := stats.trafficMatrix[0][1]
			if sent < int64(tc.tasks)*90_000 || sent != stats.BytesOverTCP {
				t.Fatalf("w0→w1 carried %d of %d bytes, want about %d KB, all of them on that link", sent, stats.BytesOverTCP, tc.tasks*100)
			}
			if floor := 0.9 * float64(sent) * 8 / rate; elapsed < floor {
				t.Fatalf("%d bytes crossed the %.0f Mbps link in %.3fs, under the %.3fs they take at that rate", sent, rate/topology.Mbps, elapsed, floor)
			}
		})
	}
}
