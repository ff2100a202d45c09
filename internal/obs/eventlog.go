package obs

import "sync"

// Log is an append-only event log with live tails, the one mechanism under
// the run-event stream (Collector) and the job service's lifecycle stream
// (jobs.Service). Events are numbered from 1 in arrival order. The zero
// value is an empty log, ready to use.
type Log[E any] struct {
	mu      sync.Mutex
	events  []E
	subs    map[int]chan E
	nextSub int
}

// Append adds the event that stamp builds for the next sequence number and
// fans it out to the subscribers. A subscriber whose buffer is full loses
// the event rather than stalling the publisher; the log still holds
// everything.
func (l *Log[E]) Append(stamp func(seq int) E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := stamp(len(l.events) + 1)
	l.events = append(l.events, ev)
	for _, ch := range l.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Snapshot returns a copy of the log in arrival order.
func (l *Log[E]) Snapshot() []E {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]E(nil), l.events...)
}

// Subscribe registers a live tail: history is a copy of everything logged
// so far, and ch carries the events appended after that snapshot, none
// missed and none repeated, buffered with buf slots (at least one). cancel
// unregisters and closes ch; it is safe to call more than once.
func (l *Log[E]) Subscribe(buf int) (history []E, ch <-chan E, cancel func()) {
	if buf < 1 {
		buf = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.subs == nil {
		l.subs = make(map[int]chan E)
	}
	id := l.nextSub
	l.nextSub++
	sub := make(chan E, buf)
	l.subs[id] = sub
	cancel = func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[id]; ok {
			delete(l.subs, id)
			close(sub)
		}
	}
	return append([]E(nil), l.events...), sub, cancel
}
