package livecluster

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// link is the client side of one directed worker pair, src → dst: the
// idle pooled connections src holds to dst, the bounds their dials and
// exchanges run under, the pacing of the two directed links those
// connections' bytes travel, and the way to the running job's Stats, where
// every exchange, dial and byte they carry is accounted as it happens. The
// cluster wires one per ordered pair of distinct workers once every worker
// listens (Cluster.wireLinks) — no worker has a link to itself, what it holds
// it reads and writes in its own block store — and nothing else knows which
// link a byte is on. Only addr and stats need setting for a link to work:
// zero timeouts bound nothing, without buckets it is unshaped, and with no
// width it dials one connection at a time.
//
// When a link dials: a task has at most one exchange in flight, and at most
// width tasks (Config.TasksPerWorker) run on src at once, so a link never
// needs more than width connections. The first exchange on a link dials all
// of them and pools the spares; from then on a link dials only to replace a
// connection that broke. A warm cluster therefore runs its jobs without
// dialing, however its tasks happen to overlap, and New opens nothing for the
// links no job uses.
type link struct {
	src, dst int
	addr     string // dst's listen address
	// stats returns the running job's record (Cluster.running), nil between
	// jobs, when what the link accounts is dropped.
	stats func() *Stats
	// width is how many exchanges src can have in flight to dst at once, and
	// so how many connections the first dial fills the pool to.
	width int

	// dialTimeout bounds connection establishment; ioTimeout is the
	// deadline one whole exchange (stream included) must finish within.
	// Zero disables either bound.
	dialTimeout time.Duration
	ioTimeout   time.Duration

	// out paces src → dst and in paces dst → src under Config.WANTopology;
	// nil on an unshaped pair. The link dst → src holds the same two
	// buckets the other way round.
	out, in *bucket

	mu     sync.Mutex
	idle   []*pooledConn
	filled bool // the first get has dialed the link's width
}

// pooledConn is one persistent client connection and its reader: frames are
// written to conn directly, and everything the server sends back is read
// through br.
type pooledConn struct {
	conn *countingConn
	br   *bufio.Reader
}

func (pc *pooledConn) close() { _ = pc.conn.Close() }

// get checks a connection out of the link, dialing a fresh one when none is
// idle. The second result reports whether the connection had been pooled —
// the peer may have closed such a connection while it sat idle, so its
// exchange gets one transparent retry. The link's first connection brings its
// spares with it, dialed before the lock is let go: a second task arriving
// meanwhile waits for a spare instead of dialing one of its own, so a link
// that lost no connection has dialed exactly its width.
func (l *link) get() (*pooledConn, bool, error) {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		pc := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return pc, true, nil
	}
	if l.filled {
		l.mu.Unlock()
		pc, err := l.dial()
		return pc, false, err
	}
	defer l.mu.Unlock()
	pc, err := l.dial()
	if err != nil {
		return nil, false, err
	}
	l.filled = true
	for n := 1; n < l.width; n++ {
		spare, err := l.dial()
		if err != nil {
			break // the exchange has its connection; a short pool costs a later dial, not this one
		}
		l.idle = append(l.idle, spare)
	}
	return pc, false, nil
}

// dial opens and accounts a fresh connection under the dial timeout.
func (l *link) dial() (*pooledConn, error) {
	conn, err := net.DialTimeout("tcp", l.addr, l.dialTimeout) // zero: no timeout
	if err != nil {
		return nil, err
	}
	l.stats().dial()
	cw := &countingConn{Conn: conn, out: l.out, in: l.in}
	return &pooledConn{conn: cw, br: bufio.NewReader(cw)}, nil
}

// put returns a healthy connection to the link.
func (l *link) put(pc *pooledConn) {
	l.mu.Lock()
	l.idle = append(l.idle, pc)
	l.mu.Unlock()
}

// exchange runs one request exchange of the given traffic class (fn drives
// the framing and returns the exchange's compression savings) on a pooled
// connection, and accounts it as one request of its class if it succeeds. A
// connection that came from the pool may have been closed by the peer while
// idle: if its exchange breaks with anything but a timeout, the exchange is
// run once more on a freshly dialed connection. Fresh connections don't
// retry, and neither do timeouts — a hung peer would only burn a second
// deadline.
func (l *link) exchange(class string, fn func(*pooledConn) (int64, error)) error {
	pc, pooled, err := l.get()
	if err != nil {
		return err
	}
	broken, err := l.attempt(pc, class, fn)
	if broken && pooled {
		var ne net.Error // declared on the failure path only: it escapes
		if errors.As(err, &ne) && ne.Timeout() {
			return err
		}
		if pc, err = l.dial(); err != nil {
			return err
		}
		_, err = l.attempt(pc, class, fn)
	}
	if err == nil {
		l.stats().op(class)
	}
	return err
}

// attempt runs fn on pc under the I/O deadline and accounts what it put on
// the wire: every attempt's bytes are a flow (raw is wire plus compression
// savings), broken ones included, so the job's byte total, traffic matrix
// and class split add up to what the counted sockets carried. An attempt
// the peer answered also leaves a transfer sample for the link estimator
// and its connection back in the pool — also when the answer was an error
// (remoteError) or this side ended the stream in order (localError): the
// wire worked. A broken attempt has no rate to sample, and its connection
// is closed.
func (l *link) attempt(pc *pooledConn, class string, fn func(*pooledConn) (int64, error)) (broken bool, err error) {
	before := pc.conn.bytes.Load()
	t0 := time.Now()
	if l.ioTimeout > 0 {
		_ = pc.conn.SetDeadline(t0.Add(l.ioTimeout))
	}
	savings, err := fn(pc)
	if l.ioTimeout > 0 {
		_ = pc.conn.SetDeadline(time.Time{})
	}
	wire := pc.conn.bytes.Load() - before
	stats := l.stats()
	stats.flow(l.src, l.dst, class, wire, wire+savings)
	if !intact(err) {
		pc.close()
		return true, err
	}
	stats.xfer(l.src, l.dst, wire, time.Since(t0).Seconds())
	l.put(pc)
	return false, err
}

// closeAll closes every idle connection.
func (l *link) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.idle {
		pc.close()
	}
	l.idle = nil
}

// bucket paces one directed worker pair to its configured inter-DC rate:
// every byte any connection moves in that direction pushes a rolling
// next-allowed instant forward by its transmission time at the rate, and
// its mover sleeps until that instant. The state is per pair, not per
// connection, so a worker's concurrent tasks share the link's rate instead
// of multiplying it.
type bucket struct {
	rateBps float64
	mu      sync.Mutex
	next    time.Time
}

// take charges n bytes and sleeps until the link has carried them. A nil
// bucket (an unshaped pair) charges nothing.
func (b *bucket) take(n int) {
	if b == nil || n <= 0 {
		return
	}
	d := time.Duration(float64(n) * 8 / b.rateBps * float64(time.Second))
	b.mu.Lock()
	now := time.Now()
	if b.next.Before(now) {
		b.next = now
	}
	b.next = b.next.Add(d)
	wait := b.next.Sub(now)
	b.mu.Unlock()
	time.Sleep(wait)
}

// countingConn is a client connection src → dst that counts its payload
// bytes in both directions and charges them to the pair's buckets: what it
// writes travels src → dst, what it reads came dst → src (the shaped
// payload leaves via writes on a push but arrives via reads on a fetch).
// The accepted end of the connection is a bare net.Conn, so each byte is
// counted and paced once.
type countingConn struct {
	net.Conn
	bytes   atomic.Int64
	out, in *bucket
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	c.in.take(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.out.take(n)
	return n, err
}
