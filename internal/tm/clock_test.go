package tm_test

// Commit-clock integration tests for the tm layer: the Stats clock
// counter, and Quiesce ordering against a live earlier-start
// transaction.

import (
	"testing"
	"time"

	"tmsync/internal/stm/eager"
	"tmsync/internal/tm"
)

// TestClockCountersExported pins the clock counter: the clock counts one
// advance per writer commit, and the count appears in the Snapshot map.
// Snapshot carries no key for a counter nothing increments.
func TestClockCountersExported(t *testing.T) {
	sys := tm.NewSystem(tm.Config{Quiesce: true}, eager.New)
	thr := sys.NewThread()
	var x uint64
	const n = 25
	for i := 0; i < n; i++ {
		thr.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, tx.Read(&x)+1)
		})
	}
	snap := sys.Stats.Snapshot()
	if _, ok := snap["clock_advances"]; !ok {
		t.Fatal("Snapshot lacks clock_advances")
	}
	for _, dead := range []string{"clock_cas_retries", "futile_wakeups"} {
		if _, ok := snap[dead]; ok {
			t.Errorf("Snapshot still carries the dead counter %s", dead)
		}
	}
	if got := sys.Stats.ClockAdvances.Load(); got < n {
		t.Errorf("clock advances = %d, want >= %d (one per writer commit)", got, n)
	}
}

// TestQuiesceWaitsForEarlierStart pins the privatization contract: a
// reader that published ActiveStart before the writer's commit must
// block the writer's Atomic until the reader retires.
func TestQuiesceWaitsForEarlierStart(t *testing.T) {
	sys := tm.NewSystem(tm.Config{Quiesce: true}, eager.New)
	reader := sys.NewThread()
	writer := sys.NewThread()

	// The reader publishes a live attempt at the current clock, exactly
	// as Begin would, and stays live (no commit, no abort).
	reader.PublishStart()

	var x uint64
	done := make(chan struct{})
	go func() {
		writer.Atomic(func(tx *tm.Tx) {
			tx.Write(&x, 1)
		})
		close(done)
	}()

	// The writer's commit must stay parked in Quiesce while the
	// earlier-start reader is live. Give it ample time to (wrongly)
	// return early.
	select {
	case <-done:
		t.Fatal("writer commit returned while an earlier-start transaction was live")
	case <-time.After(50 * time.Millisecond):
	}

	// Retiring the reader releases the writer.
	reader.ActiveStart.Store(0)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer commit never returned after the reader retired")
	}
}
