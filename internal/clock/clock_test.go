package clock

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestZeroTime(t *testing.T) {
	if c := New(nil); c.Now() != 0 {
		t.Errorf("fresh clock reads %d", c.Now())
	}
}

func TestModeIdentity(t *testing.T) {
	if got := New(nil).Mode(); got != Global {
		t.Errorf("New(nil).Mode() = %s, want %s", got, Global)
	}
}

// TestAtLeastNeverRegresses: AtLeast moves the clock forward to the
// target and never backwards.
func TestAtLeastNeverRegresses(t *testing.T) {
	c := New(nil)
	c.AtLeast(100)
	if c.Now() != 100 {
		t.Fatalf("AtLeast(100): now=%d", c.Now())
	}
	c.AtLeast(50) // must not go backwards
	if c.Now() != 100 {
		t.Fatalf("AtLeast(50) moved clock backwards to %d", c.Now())
	}
}

// TestCommitMonotonic pins the single-threaded contract: Commit's end
// always exceeds the start it was given, and every stamp is covered by
// the clock as soon as Commit returns.
func TestCommitMonotonic(t *testing.T) {
	c := New(nil)
	for i := 0; i < 100; i++ {
		start := c.Now()
		end, _ := c.Commit(start, 0)
		if end <= start {
			t.Fatalf("Commit(%d) = %d, not after start", start, end)
		}
		if end > c.Now() {
			t.Fatalf("end %d ahead of the clock %d", end, c.Now())
		}
	}
}

// TestGlobalExclusiveUncontended: with no concurrent committers, every
// commit gets the validation-skipping fast path, and timestamps advance
// by exactly one.
func TestGlobalExclusiveUncontended(t *testing.T) {
	c := New(nil)
	for i := uint64(1); i <= 10; i++ {
		end, excl := c.Commit(i-1, 0)
		if end != i || !excl {
			t.Fatalf("Commit #%d = %d, exclusive=%v", i, end, excl)
		}
	}
}

// TestCounters pins the uncontended counter semantics: every advance is
// counted, and AtLeast on an already-ahead clock counts nothing.
func TestCounters(t *testing.T) {
	var advances atomic.Uint64
	c := New(&advances)
	c.Commit(0, 0)
	c.Bump()
	c.AtLeast(10)
	c.AtLeast(5) // no-op: already past 5
	if advances.Load() != 3 {
		t.Errorf("advances = %d, want 3", advances.Load())
	}
}

// TestConcurrentCommitUniqueTimestamps is the global clock's defining
// property: concurrent committers all receive distinct timestamps and
// the final clock equals the number of commits.
func TestConcurrentCommitUniqueTimestamps(t *testing.T) {
	c := New(nil)
	const goroutines = 8
	const per = 10000
	results := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := make([]uint64, per)
			for i := range out {
				out[i], _ = c.Commit(0, 0)
			}
			results[id] = out
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*per)
	for _, r := range results {
		prev := uint64(0)
		for _, v := range r {
			if v <= prev {
				t.Fatal("Commit not monotonic within a goroutine")
			}
			prev = v
			if seen[v] {
				t.Fatalf("timestamp %d issued twice", v)
			}
			seen[v] = true
		}
	}
	if c.Now() != goroutines*per {
		t.Fatalf("final clock %d, want %d", c.Now(), goroutines*per)
	}
}

// TestCommitExceedsHeld pins the per-orec monotonicity contract: a
// commit stamp strictly exceeds the highest version the committer holds
// locked, so two successive commits to the same orec can never publish
// the same version.
func TestCommitExceedsHeld(t *testing.T) {
	c := New(nil)
	held := uint64(0)
	for i := 0; i < 100; i++ {
		end, _ := c.Commit(c.Now(), held)
		if end <= held {
			t.Fatalf("Commit with held=%d returned %d (version reuse)", held, end)
		}
		held = end // the next committer of this orec locks version end
	}
}

// TestNowMonotonicUnderConcurrency samples Now while other goroutines
// drive every advance path; observed time must never decrease.
func TestNowMonotonicUnderConcurrency(t *testing.T) {
	c := New(nil)
	var committers sync.WaitGroup
	for g := 0; g < 4; g++ {
		committers.Add(1)
		go func() {
			defer committers.Done()
			for i := 0; i < 2000; i++ {
				end, _ := c.Commit(c.Now(), 0)
				c.AtLeast(end + 1)
				if i%64 == 0 {
					c.Bump()
				}
			}
		}()
	}
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		prev := uint64(0)
		for {
			now := c.Now()
			if now < prev {
				t.Errorf("Now went backwards: %d after %d", now, prev)
				return
			}
			prev = now
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	committers.Wait()
	close(stop)
	<-samplerDone
}
