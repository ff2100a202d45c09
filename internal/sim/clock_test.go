package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAtFiresInTimeOrder(t *testing.T) {
	c := NewClock()
	var order []int
	c.At(3, func() { order = append(order, 3) })
	c.At(1, func() { order = append(order, 1) })
	c.At(2, func() { order = append(order, 2) })
	c.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(5, func() { order = append(order, i) })
	}
	c.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	c := NewClock()
	var at float64
	c.After(2.5, func() { at = c.Now() })
	c.Run(0)
	if at != 2.5 {
		t.Fatalf("fired at %v, want 2.5", at)
	}
	if c.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", c.Now())
	}
}

func TestPastEventClampedToNow(t *testing.T) {
	c := NewClock()
	c.At(10, func() {
		c.At(5, func() {
			if c.Now() != 10 {
				t.Errorf("past event fired at %v, want clamp to 10", c.Now())
			}
		})
	})
	c.Run(0)
}

func TestNegativeAfterClamped(t *testing.T) {
	c := NewClock()
	fired := false
	c.After(-1, func() { fired = true })
	c.Run(0)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := NewClock()
	fired := false
	timer := c.At(1, func() { fired = true })
	if !timer.Cancel() {
		t.Fatal("Cancel() = false for pending event")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	c.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	c := NewClock()
	timer := c.At(1, func() {})
	c.Run(0)
	if timer.Cancel() {
		t.Fatal("Cancel() after fire = true, want false")
	}
}

func TestPendingReflectsQueue(t *testing.T) {
	c := NewClock()
	t1 := c.At(1, func() {})
	t2 := c.At(2, func() {})
	if !t1.Pending() || !t2.Pending() {
		t.Fatal("Pending() = false for a scheduled event")
	}
	t1.Cancel()
	if t1.Pending() || !t2.Pending() {
		t.Fatalf("after cancel: Pending() = %v, %v, want false, true", t1.Pending(), t2.Pending())
	}
	if !c.Step() {
		t.Fatal("Step() = false with pending events")
	}
	if t2.Pending() {
		t.Fatal("Pending() = true after the event fired")
	}
	if c.Step() {
		t.Fatal("Step() = true with no live events left")
	}
}

func TestTimerPending(t *testing.T) {
	c := NewClock()
	timer := c.At(1, func() {})
	if !timer.Pending() {
		t.Fatal("Pending() = false before fire")
	}
	c.Run(0)
	if timer.Pending() {
		t.Fatal("Pending() = true after fire")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := NewClock()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	n := c.RunUntil(2.5)
	if n != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", n)
	}
	if c.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", c.Now())
	}
	if c.Run(0) != 2 {
		t.Fatal("remaining events not preserved")
	}
}

func TestEventSchedulingDuringRun(t *testing.T) {
	c := NewClock()
	var times []float64
	var chain func(depth int)
	chain = func(depth int) {
		times = append(times, c.Now())
		if depth < 5 {
			c.After(1, func() { chain(depth + 1) })
		}
	}
	c.After(0, func() { chain(0) })
	c.Run(0)
	if len(times) != 6 {
		t.Fatalf("chain fired %d times, want 6", len(times))
	}
	if times[5] != 5 {
		t.Fatalf("last fire at %v, want 5", times[5])
	}
}

func TestRunMaxEventsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from runaway loop")
		}
	}()
	c := NewClock()
	var loop func()
	loop = func() { c.After(1, loop) }
	c.After(0, loop)
	c.Run(100)
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	NewClock().At(1, nil)
}

// Property: any set of scheduled times fires in sorted order, and the clock
// never moves backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewClock()
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 7.0
			c.At(at, func() { fired = append(fired, c.Now()) })
		}
		c.Run(0)
		if len(fired) != len(raw) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestQuickCancellation(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		c := NewClock()
		rng := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		fired := 0
		timers := make([]Timer, 0, total)
		for i := 0; i < total; i++ {
			timers = append(timers, c.At(rng.Float64()*100, func() { fired++ }))
		}
		cancelled := 0
		for _, tm := range timers {
			if rng.Intn(2) == 0 {
				if tm.Cancel() {
					cancelled++
				}
			}
		}
		c.Run(0)
		return fired == total-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamIndependence(t *testing.T) {
	a1 := Stream(42, "alpha").Float64()
	a2 := Stream(42, "alpha").Float64()
	b := Stream(42, "beta").Float64()
	if a1 != a2 {
		t.Fatal("same seed+name produced different draws")
	}
	if a1 == b {
		t.Fatal("different names produced identical draws")
	}
}

func TestJitterBounds(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.3)
		if j < 0.7 || j > 1.3 {
			t.Fatalf("Jitter(0.3) = %v out of [0.7,1.3]", j)
		}
	}
	if r.Jitter(0) != 1 {
		t.Fatal("Jitter(0) != 1")
	}
	if r.Jitter(-1) != 1 {
		t.Fatal("Jitter(-1) != 1")
	}
}
