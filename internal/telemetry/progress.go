package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"

	"wanshuffle/internal/obs"
)

// Progress renders a single in-place terminal line summarizing a running
// job: stages done, tasks running/finished, retries, and bytes pushed so
// far. It redraws on a ticker and rewrites itself with \r, so it wants a
// terminal; pipe-redirected output should leave it disabled.
type Progress struct {
	w      io.Writer
	events func() *obs.Collector
	bytes  func() int64 // bytes moved so far; nil omits the field

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	lastLen int
}

// progressInterval is how often the progress line redraws.
const progressInterval = 200 * time.Millisecond

// StartProgress begins redrawing every progressInterval. Call Stop to finish
// the line.
func StartProgress(w io.Writer, events func() *obs.Collector, bytes func() int64) *Progress {
	p := &Progress{
		w:      w,
		events: events,
		bytes:  bytes,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(progressInterval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.draw()
			}
		}
	}()
	return p
}

// Stop halts the ticker, draws one final state, and terminates the line
// with a newline so subsequent output starts clean.
func (p *Progress) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
	p.draw()
	p.mu.Lock()
	fmt.Fprintln(p.w)
	p.mu.Unlock()
}

// draw renders the current state over the previous line.
func (p *Progress) draw() {
	line := p.Line()
	p.mu.Lock()
	defer p.mu.Unlock()
	pad := p.lastLen - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.w, "\r%s%*s", line, pad, "")
	p.lastLen = len(line)
}

// Line formats the current progress state as one line (without the \r).
func (p *Progress) Line() string {
	var c obs.PhaseCounts
	if p.events != nil {
		c = p.events().Counts()
	}
	line := fmt.Sprintf("stages %d done | tasks %d running / %d finished", c.StagesDone, c.Running(), c.Finished)
	if c.Retried > 0 {
		line += fmt.Sprintf(" / %d retried", c.Retried)
	}
	if p.bytes != nil {
		line += " | " + humanBytes(p.bytes()) + " moved"
	}
	return line
}

// humanBytes formats a byte count with a binary-ish decimal unit (KB/MB/GB
// at powers of 1000), one decimal above bytes.
func humanBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1f GB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1f MB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
