package obs

import (
	"sync"
	"testing"
)

func TestCollectorSubscribeHistoryAndLive(t *testing.T) {
	c := NewCollector()
	c.OnTask(TaskEvent{Phase: PhaseScheduled, StageName: "map", Part: 0})
	c.OnStage(StageEvent{ID: 0, Name: "map", End: 1})

	history, ch, cancel := c.Subscribe(8)
	defer cancel()
	if len(history) != 2 || history[0].Type != "task" || history[1].Type != "stage" {
		t.Fatalf("history = %+v", history)
	}
	if history[0].Seq != 1 || history[1].Seq != 2 {
		t.Fatalf("history seq = %d, %d", history[0].Seq, history[1].Seq)
	}

	c.OnTask(TaskEvent{Phase: PhaseStarted, StageName: "map", Part: 0})
	ev := <-ch
	if ev.Type != "task" || ev.Task == nil || ev.Task.Phase != PhaseStarted || ev.Seq != 3 {
		t.Fatalf("live event = %+v", ev)
	}

	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	// Publishing after cancel must not panic or block.
	c.OnTask(TaskEvent{Phase: PhaseFinished, StageName: "map"})
}

func TestCollectorSlowSubscriberDropsNotBlocks(t *testing.T) {
	c := NewCollector()
	_, ch, cancel := c.Subscribe(1)
	defer cancel()
	for i := 0; i < 10; i++ {
		c.OnTask(TaskEvent{Phase: PhaseStarted, StageName: "map", Part: i})
	}
	// Only the first event fits the buffer; the rest were dropped, and the
	// full log still holds all ten.
	if ev := <-ch; ev.Task.Part != 0 {
		t.Fatalf("first buffered event = %+v", ev)
	}
	if got := len(c.Events()); got != 10 {
		t.Fatalf("log length = %d, want 10", got)
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	c.OnTask(TaskEvent{Phase: PhaseScheduled})
	c.OnTask(TaskEvent{Phase: PhaseStarted})
	c.OnTask(TaskEvent{Phase: PhaseStarted})
	c.OnTask(TaskEvent{Phase: PhaseFailed})
	c.OnTask(TaskEvent{Phase: PhaseRetried})
	c.OnTask(TaskEvent{Phase: PhaseFinished})
	c.OnStage(StageEvent{Name: "s"})
	got := c.Counts()
	want := PhaseCounts{Scheduled: 1, Started: 2, Finished: 1, Failed: 1, Retried: 1, StagesDone: 1}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
}

func TestCollectorSubscribeConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.OnTask(TaskEvent{Phase: PhaseStarted, StageName: "map", Part: g*50 + i})
			}
		}(g)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			history, ch, cancel := c.Subscribe(16)
			defer cancel()
			_ = history
			for i := 0; i < 5; i++ {
				select {
				case <-ch:
				default:
				}
			}
			_ = c.Counts()
			_ = c.Events()
		}()
	}
	wg.Wait()
	if got := c.Counts().Started; got != 200 {
		t.Fatalf("started = %d, want 200", got)
	}
}

func TestNilCollectorSubscribe(t *testing.T) {
	var c *Collector
	history, ch, cancel := c.Subscribe(4)
	if history != nil || ch != nil {
		t.Fatal("nil collector returned a live subscription")
	}
	cancel()
	if c.Counts() != (PhaseCounts{}) {
		t.Fatal("nil collector has counts")
	}
}

func TestInProgressReport(t *testing.T) {
	c := NewCollector()
	c.OnTask(TaskEvent{Phase: PhaseStarted, StageName: "map"})
	c.OnStage(StageEvent{ID: 0, Name: "map", Start: 0, End: 2})
	rep := InProgressReport("sim", "wordcount", "AggShuffle", c)
	if rep.Schema != SchemaVersion || rep.Backend != "sim" || rep.Workload != "wordcount" {
		t.Fatalf("header = %+v", rep)
	}
	if len(rep.Stages) != 1 || rep.TaskAttempts != 1 {
		t.Fatalf("snapshot = %+v", rep)
	}
}
