// Package tm defines the engine-independent transactional-memory runtime:
// the transaction descriptor (per-thread metadata of Appendix A), the
// Engine interface implemented by the eager STM, lazy STM, and simulated
// HTM, the atomic-execution driver that plays the role of the C
// checkpoint/restore (setjmp/longjmp) machinery using panic/recover, and
// shared services (logical clock, orec table, quiescence, allocation
// pools, statistics).
//
// Condition synchronization (package core) layers on top through two
// extension points: the Signal interface, which lets a mechanism unwind an
// in-flight transaction and decide how the thread proceeds, and the
// System.PostCommit hook, which runs after every writer commit (the
// wakeWaiters call of Algorithm 4).
package tm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tmsync/internal/clock"
	"tmsync/internal/locktable"
	"tmsync/internal/mono"
	"tmsync/internal/sem"
	"tmsync/internal/spin"
)

// Mode describes how the current transaction attempt executes.
type Mode uint8

const (
	// ModeSTM is an instrumented software transaction.
	ModeSTM Mode = iota
	// ModeHW is a simulated best-effort hardware transaction: invisible
	// buffered writes, eager conflict aborts, capacity limits, and no
	// escape actions.
	ModeHW
	// ModeSerial is the software fallback mode of the HTM engine: the
	// thread holds the global serial lock, concurrency is suspended, and
	// escape actions (waitset logging, descheduling) are permitted.
	ModeSerial
)

func (m Mode) String() string {
	switch m {
	case ModeSTM:
		return "stm"
	case ModeHW:
		return "hw"
	case ModeSerial:
		return "serial"
	}
	return "unknown"
}

// AbortReason classifies why a transaction attempt aborted.
type AbortReason uint8

const (
	AbortConflict AbortReason = iota
	AbortCapacity
	AbortSpurious
	AbortExplicit
)

// ReadEntry records one transactional read for later validation.
type ReadEntry struct {
	Addr *uint64
	Orec uint32 // orec slot covering Addr
	Ver  uint64 // orec version observed at the read (timestamp extension)
}

// UndoEntry records the pre-write value of a word (eager STM / serial mode).
type UndoEntry struct {
	Addr *uint64
	Old  uint64
}

// AddrVal is an address/value pair; the waitset of Algorithm 5 is a list
// of these, enabling value-based wakeup decisions (immune to silent stores).
type AddrVal struct {
	Addr *uint64
	Val  uint64
}

// WriteEntry is one buffered write in a redo log.
type WriteEntry struct {
	Addr *uint64
	Val  uint64
	Orec uint32
}

// WriteSet is an ordered redo log with O(1) lookup, used by the lazy STM
// and the simulated HTM.
type WriteSet struct {
	Entries []WriteEntry
	index   map[*uint64]int
}

// Put buffers a write, overwriting any earlier write to the same address.
func (w *WriteSet) Put(addr *uint64, val uint64, orec uint32) {
	if w.index == nil {
		w.index = make(map[*uint64]int, 16)
	}
	if i, ok := w.index[addr]; ok {
		w.Entries[i].Val = val
		return
	}
	w.index[addr] = len(w.Entries)
	w.Entries = append(w.Entries, WriteEntry{Addr: addr, Val: val, Orec: orec})
}

// Get returns the buffered value for addr, if any.
func (w *WriteSet) Get(addr *uint64) (uint64, bool) {
	if w.index == nil {
		return 0, false
	}
	if i, ok := w.index[addr]; ok {
		return w.Entries[i].Val, true
	}
	return 0, false
}

// Len returns the number of distinct buffered addresses.
func (w *WriteSet) Len() int { return len(w.Entries) }

// Reset clears the write set for reuse.
func (w *WriteSet) Reset() {
	w.Entries = w.Entries[:0]
	clear(w.index)
}

// Tx is the per-thread transaction descriptor. One descriptor lives in each
// Thread and is reused across attempts; flat (subsumption) nesting is
// handled with the Nesting counter exactly as in Algorithm 9.
type Tx struct {
	Thr *Thread
	Sys *System

	Start   uint64      // logical time of transaction start
	Reads   []ReadEntry // locations read (validation)
	Undo    []UndoEntry // eager/serial: writes to undo
	Redo    WriteSet    // lazy/hw: buffered writes
	Locks   []uint32    // orec slots locked by this transaction
	Waitset []AddrVal   // Retry/Await: address/value pairs observed
	Mallocs [][]uint64  // transactional allocations (undone on abort)
	Frees   [][]uint64  // deferred frees (performed on commit)

	// WriteOrecs is filled by the engine during a successful Commit with
	// the orec slots the transaction wrote. The original Retry mechanism
	// (Algorithm 1) intersects it with sleeping transactions' read sets.
	WriteOrecs []uint32

	// WriteStripes is the deduplicated set of orec-table stripes the
	// attempt's write set touched, recorded by the engines as write
	// ownership is established (lock acquisition; serial-mode stores).
	// The post-commit wakeup visits only these stripes, making Algorithm
	// 4's wakeWaiters O(write set) instead of O(waiters). Stripe ids are
	// relative to TableView's geometry.
	WriteStripes []uint32

	// TableView is the orec-table stripe geometry the attempt runs under,
	// stamped by the engine in Begin and revalidated at commit: an online
	// stripe resize between the two bumps the table generation, and a
	// writer whose stripe set was recorded under a stale geometry aborts
	// and re-executes against the new table (RevalidateTableGen).
	TableView locktable.View

	// OnCommit holds actions deferred until the attempt commits (e.g.
	// condition-variable signals, which must not fire from an attempt
	// that may yet abort). Dropped without running if the attempt aborts.
	OnCommit []func()

	Mode     Mode
	Nesting  int
	Attempts int  // attempts of the current Atomic execution
	IsRetry  bool // Algorithm 5: log address/value pairs on every read
	// WantSoftware forces the next HTM attempt into ModeSerial so that
	// escape actions become available (restart_in_STM of Algorithm 5).
	WantSoftware bool
	// SerialHeld records that this attempt owns the system's serial lock
	// (HTM fallback mode or an irrevocable section); it is released
	// exactly once, by the engine or the driver.
	SerialHeld bool
	// WantIrrevocable asks the driver to re-execute the next attempt as
	// an irrevocable (serialized) transaction, the model for the "relaxed
	// transactions" that perform I/O (§2.4.2).
	WantIrrevocable bool

	// hwReads/hwWrites count words accessed by a hardware transaction for
	// capacity accounting.
	HWReads, HWWrites int

	rng uint64 // per-tx xorshift state (spurious-abort draws)
}

// Rand returns a pseudo-random 64-bit value from the descriptor's private
// xorshift generator.
func (tx *Tx) Rand() uint64 {
	x := tx.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// Read performs a transactional load through the system's engine. When the
// thread carries deferred post-commit wake scans (cross-commit wakeup
// coalescing), a read that lands back in a pending stripe requests a
// flush, honoured only if the attempt ends without a writer commit: a
// thread POLLING data its unscanned commits changed (e.g. read-only loops
// waiting for a consumer that is itself asleep behind the deferred scan)
// must not spin forever, while a read-modify-write loop — which re-reads
// its own pending stripes on every iteration by construction — keeps
// accumulating under the K-commit bound.
func (tx *Tx) Read(addr *uint64) uint64 {
	v := tx.Sys.Engine.Read(tx, addr)
	if tx.Thr.PendingActive.Load() && !tx.Thr.PendingReadHit.Load() {
		tx.noteReadHit(addr)
	}
	return v
}

// noteReadHit is the slow half of Read's pending-stripe check, kept out of
// line so the common no-pending case stays a load and a compare. A stale
// pending generation (the table resized under the buffer) or a full-scan
// marker is treated as a hit: re-deriving membership here would cost more
// than the flush it avoids. The stripe walk runs under the pending latch:
// the age backstop may drain the buffer from another goroutine, and a
// drain between Read's gate and this walk just leaves the buffer empty —
// no hit, nothing left to flush.
func (tx *Tx) noteReadHit(addr *uint64) {
	t := tx.Thr
	t.PendingMu.Lock()
	if t.PendingCommits == 0 {
		t.PendingMu.Unlock()
		return
	}
	if t.PendingFull || t.PendingGen != tx.TableView.Gen {
		t.PendingMu.Unlock()
		t.PendingReadHit.Store(true)
		return
	}
	s := tx.TableView.StripeOf(tx.Sys.Table.IndexOf(addr))
	hit := false
	for _, x := range t.PendingStripes {
		if x == s {
			hit = true
			break
		}
	}
	t.PendingMu.Unlock()
	if hit {
		t.PendingReadHit.Store(true)
	}
}

// Write performs a transactional store through the system's engine.
func (tx *Tx) Write(addr *uint64, v uint64) { tx.Sys.Engine.Write(tx, addr, v) }

// DidWrite reports whether the current attempt performed any store.
func (tx *Tx) DidWrite() bool {
	return len(tx.Undo) > 0 || tx.Redo.Len() > 0
}

// OldValue returns the pre-transaction value of addr if this transaction
// wrote it (first undo-log entry wins: Algorithm 10 appends on every
// write, so the earliest entry holds the original memory value).
func (tx *Tx) OldValue(addr *uint64) (uint64, bool) {
	for i := range tx.Undo {
		if tx.Undo[i].Addr == addr {
			return tx.Undo[i].Old, true
		}
	}
	return 0, false
}

// NoteWriteStripe records that the attempt established write ownership of
// orec slot idx, adding the slot's stripe to the write-stripe set. Engines
// call it wherever they acquire a write lock (or, in the HTM serial
// fallback, wherever they store in place). The set is tiny — one entry per
// distinct stripe, bounded by the table's stripe count — so a linear
// dedup scan beats a map.
func (tx *Tx) NoteWriteStripe(idx uint32) {
	s := tx.TableView.StripeOf(idx)
	for _, x := range tx.WriteStripes {
		if x == s {
			return
		}
	}
	tx.WriteStripes = append(tx.WriteStripes, s)
}

// StampTableView captures the orec-table stripe geometry for the attempt.
// Engines call it from Begin so that every stripe the attempt names
// (NoteWriteStripe) is relative to one consistent generation.
func (tx *Tx) StampTableView() { tx.TableView = tx.Sys.Table.Current() }

// RevalidateTableGen aborts the attempt if the orec-table stripe geometry
// changed since Begin. Engines call it in Commit, before making a writer's
// effects durable: the attempt's WriteStripes were named under TableView's
// generation, and the post-commit wakeup must not be handed stripe ids
// from a geometry the condition-synchronization registries have migrated
// away from. Aborting re-executes the transaction against the new table —
// the per-transaction cost of an online stripe resize.
func (tx *Tx) RevalidateTableGen() {
	if tx.TableView.Gen != tx.Sys.Table.Gen() {
		tx.Sys.Stats.GenAborts.Add(1)
		tx.Abort(AbortConflict)
	}
}

// LogWait appends an address/value pair to the waitset.
func (tx *Tx) LogWait(addr *uint64, val uint64) {
	tx.Waitset = append(tx.Waitset, AddrVal{Addr: addr, Val: val})
}

// Abort explicitly aborts the current attempt with the given reason. It
// unwinds to the driver, which rolls back and re-executes after backoff.
//
//tm:noreturn
func (tx *Tx) Abort(reason AbortReason) {
	panic(abortSig{reason: reason})
}

// Restart aborts the current attempt and re-executes immediately, without
// backoff growth. This is the "Restart" baseline of the evaluation: abort
// and immediately re-attempt whenever a precondition does not hold.
//
//tm:noreturn
func (tx *Tx) Restart() {
	tx.Sys.Stats.ExplicitRestarts.Add(1)
	panic(restartSig{})
}

// RestartTagged aborts the current attempt and re-executes it with IsRetry
// set, so the engine logs an address/value waitset on every read
// (restart-to-populate of Algorithm 5).
//
//tm:noreturn
func (tx *Tx) RestartTagged() {
	tx.IsRetry = true
	panic(restartSig{})
}

// RestartSoftware aborts the current attempt and re-executes it in an
// instrumented software mode. Hardware transactions use it when they need
// escape actions (Retry, Await, WaitPred); software engines treat it as a
// plain immediate restart.
//
//tm:noreturn
func (tx *Tx) RestartSoftware() {
	tx.WantSoftware = true
	panic(restartSig{})
}

// Irrevocable makes the transaction irrevocable: the attempt restarts
// under the system's serial lock with all other transactions drained, so
// its effects — including external I/O — can never be rolled back by a
// conflict. This models the "relaxed transactions" of the C++ Draft TM
// Specification that the paper discusses for dedup's I/O critical
// sections (§2.4.2). Condition synchronization before the I/O remains
// safe; a Retry/Await/WaitPred after this call releases irrevocability
// when it unwinds, so the caller must re-establish its precondition on
// re-execution (as the paper requires, condition synchronization must
// precede the I/O).
func (tx *Tx) Irrevocable() {
	if tx.SerialHeld {
		return
	}
	tx.WantIrrevocable = true
	panic(restartSig{})
}

// Alloc returns a transactionally-allocated block of n words. If the
// transaction aborts the block is automatically returned to the pool; if
// it commits the block survives.
func (tx *Tx) Alloc(n int) []uint64 {
	b := tx.Sys.pool.get(n)
	tx.Mallocs = append(tx.Mallocs, b)
	return b
}

// Free defers the reclamation of block b until the transaction commits; an
// abort drops the deferral, matching the malloc/free protocol of Appendix A.
func (tx *Tx) Free(b []uint64) {
	tx.Frees = append(tx.Frees, b)
}

// TakeMallocs removes and returns this attempt's allocations. The
// Deschedule protocol uses it to defer undoing allocations until after the
// waiter has been woken, as required when the waitset names captured memory.
func (tx *Tx) TakeMallocs() [][]uint64 {
	m := tx.Mallocs
	tx.Mallocs = nil
	return m
}

// resetAfterAttempt clears per-attempt state. If committed, deferred frees
// are finalized and allocations survive; otherwise allocations are undone
// and deferred frees dropped.
func (tx *Tx) resetAfterAttempt(committed bool) {
	if committed {
		for _, b := range tx.Frees {
			tx.Sys.pool.put(b)
		}
	} else {
		for _, b := range tx.Mallocs {
			tx.Sys.pool.put(b)
		}
	}
	tx.Reads = tx.Reads[:0]
	tx.Undo = tx.Undo[:0]
	tx.Redo.Reset()
	tx.Locks = tx.Locks[:0]
	tx.Mallocs = tx.Mallocs[:0]
	tx.Frees = tx.Frees[:0]
	tx.WriteOrecs = tx.WriteOrecs[:0]
	tx.WriteStripes = tx.WriteStripes[:0]
	tx.OnCommit = tx.OnCommit[:0]
	tx.HWReads, tx.HWWrites = 0, 0
}

// ResetWaitset lazily clears the waitset (Algorithm 5 resets it lazily).
func (tx *Tx) ResetWaitset() { tx.Waitset = tx.Waitset[:0] }

// Engine is implemented by each TM back end.
type Engine interface {
	// Name identifies the engine ("eager", "lazy", "htm").
	Name() string
	// Begin prepares a new attempt (samples the clock, chooses the mode).
	Begin(tx *Tx)
	// Read performs an instrumented load; it may Abort.
	Read(tx *Tx, addr *uint64) uint64
	// Write performs an instrumented store; it may Abort.
	Write(tx *Tx, addr *uint64, v uint64)
	// Commit attempts to commit the attempt; it may Abort. On return the
	// transaction's effects are durable.
	Commit(tx *Tx)
	// Rollback undoes all speculative effects and releases all locks and
	// engine resources held by the attempt, leaving memory as if the
	// transaction never ran. It must tolerate being called after
	// AwaitSnapshot has already applied the undo log.
	Rollback(tx *Tx)
	// Validate reports whether the attempt's read set is still consistent.
	// Used by the original Retry mechanism (Algorithm 1) and by tests.
	Validate(tx *Tx) bool
	// AwaitSnapshot implements the tricky step of Algorithm 6: undo this
	// transaction's writes (holding locks where the engine requires it),
	// then read each address consistently with the transaction and append
	// the observed address/value pairs to tx.Waitset. It may Abort.
	AwaitSnapshot(tx *Tx, addrs []*uint64)
}

// Outcome tells the driver how to proceed after a Signal was handled.
type Outcome int

const (
	// OutcomeRetry re-executes the transaction body after contention backoff.
	OutcomeRetry Outcome = iota
	// OutcomeRetryNow re-executes the transaction body immediately.
	OutcomeRetryNow
)

// Signal is a control transfer raised inside a transaction body (by
// panicking with a value implementing it). The driver rolls the attempt
// back, then invokes Handle, which decides how the thread proceeds —
// typically by sleeping until a wakeup condition holds. This is the
// mechanism packages core and condvar use to implement Deschedule, Retry,
// Await, WaitPred and transaction-safe condition variables without tm
// depending on them.
type Signal interface {
	Handle(tx *Tx) Outcome
}

type abortSig struct{ reason AbortReason }

type restartSig struct{}

// TraceKind classifies one driver-level execution event reported to the
// System.Tracer hook: the control transfers a transaction attempt can take
// that are invisible to the workload itself. Committed work is not
// reported here — a recorder sees committed operations at the workload
// layer (where they have names), and the driver adds the dynamic events
// only it can see.
type TraceKind uint8

const (
	// TraceAbort reports an aborted attempt; the argument is the
	// AbortReason, or TraceRestartArg for an explicit driver restart.
	TraceAbort TraceKind = iota
	// TraceBlock reports that a condition-synchronization Signal is about
	// to put the thread to sleep (the attempt has been rolled back).
	TraceBlock
	// TraceWake reports that the Signal handler returned and the thread is
	// about to re-execute its transaction body.
	TraceWake
	// TraceDetach reports Thread.Detach: the thread finished its program.
	TraceDetach
)

// TraceRestartArg is the TraceAbort argument distinguishing an explicit
// restart (Tx.Restart and friends) from the enumerated AbortReasons.
const TraceRestartArg = uint64(AbortExplicit) + 1

// Tracer receives driver-level execution events (recorded-trace capture).
// Like PostCommit/FlushWakeups/WakeLatency it is a nil-checked hook on
// System, installed before any thread runs and never changed afterwards;
// implementations must be safe for concurrent use — events arrive from
// every transacting goroutine.
type Tracer interface {
	TraceEvent(t *Thread, kind TraceKind, arg uint64)
}

// FlushReason says why a thread's deferred post-commit wake scans are being
// flushed (cross-commit wakeup coalescing, Config.CoalesceCommits). The
// driver reports the structural triggers it can see; the condition-
// synchronization layer adds its own (the commit bound, a read back into a
// pending stripe) internally.
type FlushReason uint8

const (
	// FlushAttemptEnd fires after an attempt that ended without a writer
	// commit (a read-only commit). The hook flushes only if the attempt
	// read a pending stripe — otherwise accumulation continues.
	FlushAttemptEnd FlushReason = iota
	// FlushAbort fires when an attempt aborted or restarted: the conflict
	// may involve the very waiters the deferred scans would wake.
	FlushAbort
	// FlushBlock fires when the thread is about to sleep (a deschedule,
	// Retry-Orig, or condition-variable wait): a thread must never block
	// while holding wakeups other threads are waiting for.
	FlushBlock
	// FlushTeardown fires from Thread.Detach: the thread will run no more
	// transactions, so nothing else would ever trip a flush bound.
	FlushTeardown
)

// Stats aggregates runtime counters for a System.
type Stats struct {
	Commits          atomic.Uint64
	ROCommits        atomic.Uint64
	Aborts           atomic.Uint64
	ConflictAborts   atomic.Uint64
	CapacityAborts   atomic.Uint64
	SpuriousAborts   atomic.Uint64
	ExplicitAborts   atomic.Uint64
	ExplicitRestarts atomic.Uint64
	Deschedules      atomic.Uint64
	Wakeups          atomic.Uint64
	Serializations   atomic.Uint64

	// WakeChecks counts sleeping waiters visited (predicate considered)
	// by post-commit wakeup scans. With the per-stripe waiter index this
	// is the O(write set) wakeup cost the sharding buys; with one stripe
	// it degenerates to the old O(waiters) global scan.
	WakeChecks atomic.Uint64

	// BatchedSignals counts semaphore signals delivered through the
	// per-commit wakeup batch: claims accumulated during the post-commit
	// scan and issued together after the last shard lock is released
	// (the per-commit form of Algorithm 4's deferred semaphore
	// operations). Zero when Config.UnbatchedWakeups reverts to
	// signal-at-claim delivery.
	BatchedSignals atomic.Uint64

	// OrigShardChecks counts Retry-Orig registry entries examined by
	// committing writers' origWake scans. With the per-stripe registry
	// shards a writer examines only the entries registered on stripes in
	// its lock set; with one stripe this degenerates to the old global
	// every-sleeper scan.
	OrigShardChecks atomic.Uint64

	// StripeResizes counts online stripe-geometry swaps (adaptive
	// controller decisions and forced-schedule resizes alike).
	StripeResizes atomic.Uint64

	// GenAborts counts commit-time aborts caused by a stripe resize
	// landing between an attempt's Begin and its Commit — the
	// per-transaction cost of an epoch swap.
	GenAborts atomic.Uint64

	// MigratedWaiters counts sleeping waiters (Deschedule and Retry-Orig
	// entries together) carried across stripe-geometry swaps by the
	// registry migration.
	MigratedWaiters atomic.Uint64

	// CoalescedScans counts writer commits whose post-commit wake scan
	// remained deferred in the committing thread's pending buffer past the
	// commit itself (Config.CoalesceCommits > 0) — commits that flushed in
	// their own postCommit are not counted, so the ratio of this to
	// Commits is the fraction of scans coalescing actually removed. Each
	// flush below replays the merged scan once for all of its commits.
	CoalescedScans atomic.Uint64

	// FlushReason* count pending-buffer flushes by trigger: the K-commit
	// bound, the thread blocking (deschedule / Retry-Orig / condvar wait),
	// an aborted or restarted attempt, a transaction reading back into a
	// pending stripe, the buffer outliving Config.CoalesceMaxDelay
	// (whether caught at an attempt boundary or drained by the idle-owner
	// backstop), and thread teardown (Thread.Detach).
	FlushReasonK        atomic.Uint64
	FlushReasonBlock    atomic.Uint64
	FlushReasonAbort    atomic.Uint64
	FlushReasonRead     atomic.Uint64
	FlushReasonAge      atomic.Uint64
	FlushReasonTeardown atomic.Uint64

	// ClockAdvances counts successful advances of the shared commit-clock
	// word: one per writer commit and per rollback Bump, plus AtLeast
	// raises. It makes commit-clock cache-line traffic observable per
	// run instead of merely inferable from throughput.
	ClockAdvances atomic.Uint64
}

// Attempts returns the total number of finished transaction attempts
// (commits, read-only commits, and aborts).
func (s *Stats) Attempts() uint64 {
	return s.Commits.Load() + s.ROCommits.Load() + s.Aborts.Load()
}

// AbortRate returns the fraction of attempts that aborted, in [0, 1].
// The differential harness reports it per engine × mechanism.
func (s *Stats) AbortRate() float64 {
	n := s.Attempts()
	if n == 0 {
		return 0
	}
	return float64(s.Aborts.Load()) / float64(n)
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"commits":           s.Commits.Load(),
		"ro_commits":        s.ROCommits.Load(),
		"aborts":            s.Aborts.Load(),
		"conflict_aborts":   s.ConflictAborts.Load(),
		"capacity_aborts":   s.CapacityAborts.Load(),
		"spurious_aborts":   s.SpuriousAborts.Load(),
		"explicit_aborts":   s.ExplicitAborts.Load(),
		"explicit_restarts": s.ExplicitRestarts.Load(),
		"deschedules":       s.Deschedules.Load(),
		"wakeups":           s.Wakeups.Load(),
		"serializations":    s.Serializations.Load(),
		"wake_checks":       s.WakeChecks.Load(),
		"batched_signals":   s.BatchedSignals.Load(),
		"orig_shard_checks": s.OrigShardChecks.Load(),
		"stripe_resizes":    s.StripeResizes.Load(),
		"gen_aborts":        s.GenAborts.Load(),
		"migrated_waiters":  s.MigratedWaiters.Load(),
		"coalesced_scans":   s.CoalescedScans.Load(),
		"flush_k":           s.FlushReasonK.Load(),
		"flush_block":       s.FlushReasonBlock.Load(),
		"flush_abort":       s.FlushReasonAbort.Load(),
		"flush_read":        s.FlushReasonRead.Load(),
		"flush_age":         s.FlushReasonAge.Load(),
		"flush_teardown":    s.FlushReasonTeardown.Load(),
		"clock_advances":    s.ClockAdvances.Load(),
	}
}

// Config selects system-wide parameters.
type Config struct {
	// TableSize is the number of orecs (power of two). 0 selects the default.
	TableSize int
	// Stripes is the initial number of cache-line-padded orec-table
	// stripes (power of two, at most TableSize). 0 selects the default
	// (locktable.DefaultStripes, clamped to the table size). Stripe count
	// is a pure performance knob: any value yields identical observable
	// behaviour, which the differential harness checks at {1, 4, 64} and
	// under forced online resizes.
	Stripes int
	// MinStripes / MaxStripes bound the adaptive stripe controller
	// (package core): when MaxStripes > MinStripes, the controller samples
	// contention over fixed commit windows and doubles or halves the
	// stripe count online within these bounds. Both default to Stripes,
	// which pins the count (MinStripes == MaxStripes disables adaptation).
	// Both must be powers of two with MinStripes <= Stripes <= MaxStripes
	// <= TableSize.
	MinStripes, MaxStripes int
	// AdaptWindow is the number of writer commits per controller decision
	// window (default 64: small enough that converging from one stripe to
	// sixty-four costs only a few hundred commits of transient).
	AdaptWindow int
	// ResizeEvery, with ResizeSchedule, replaces the adaptive policy with
	// a deterministic forced-resize schedule: every ResizeEvery writer
	// commits the controller resizes to the next count in ResizeSchedule,
	// cycling. A testing knob: the differential harness uses it to prove
	// online resizing observably inert (tmcheck -adaptive).
	ResizeEvery int
	// ResizeSchedule lists the forced-resize stripe counts (powers of
	// two); see ResizeEvery.
	ResizeSchedule []int
	// Quiesce enables privatization safety: a committing writer waits for
	// all concurrent transactions that started before its commit.
	Quiesce bool
	// TimestampExtension lets the software TMs (eager, lazy, and the
	// hybrid's software mode) extend a transaction's start time instead
	// of aborting when it reads a too-new location, by revalidating the
	// read set at the current clock (Riegel et al. [22]; Appendix A
	// notes the abort-on-too-new default is conservative). Hardware
	// attempts never extend.
	TimestampExtension bool
	// HTMReadCap / HTMWriteCap bound the simulated hardware read and write
	// sets, in words. 0 selects the defaults (4096 / 448).
	HTMReadCap, HTMWriteCap int
	// HTMSpuriousAbortPerMille injects simulated spurious hardware aborts
	// with probability n/1000 per transactional access.
	HTMSpuriousAbortPerMille int
	// HTMMaxRetries is the number of hardware attempts before the engine
	// serializes on the global lock (GCC uses 2).
	HTMMaxRetries int
	// HTMWaitPredFastPath models the 8-bit abort-code trick of §2.2.6:
	// WaitPred deschedules directly from a hardware abort instead of
	// re-executing in software mode first.
	HTMWaitPredFastPath bool
	// UnbatchedWakeups reverts the post-commit wakeup to signal-at-claim
	// delivery: each waiter's semaphore is signalled the moment its
	// predicate check claims it, instead of being accumulated into a
	// per-commit batch issued after the scan completes. Purely a
	// performance/measurement knob — delivery order is the only thing
	// that changes, so any setting must yield identical observable
	// outcomes (the differential harness checks both).
	UnbatchedWakeups bool
	// CoalesceCommits enables cross-commit wakeup coalescing: a committing
	// writer accumulates up to this many commits' write orecs and stripes
	// in a per-thread pending buffer and runs one merged post-commit wake
	// scan when a flush bound trips — the commit count reaching this value,
	// the thread itself blocking (deschedule, Retry-Orig, condition-
	// variable wait), an attempt aborting or restarting, a read-only
	// attempt reading back into a pending stripe (a writer attempt's
	// read-backs are governed by the commit bound), this many read-only
	// attempts finishing with the buffer pending (the backstop for a
	// thread that stops writing but keeps transacting on unrelated
	// data), or Thread.Detach at teardown.
	// Zero (the default) scans on every commit. Like the other wakeup
	// knobs it must be observably inert, which the differential harness
	// checks at several values; unlike them it bounds wakeup *latency* by
	// the flush triggers, so a worker that stops running transactions must
	// call Thread.Detach or its last scans would be delayed forever.
	// Incompatible with UnbatchedWakeups (a deferred scan is exactly a
	// batch carried across commits).
	CoalesceCommits int
	// CoalesceMaxDelay bounds how long a pending buffer may age before it
	// is flushed regardless of the structural bounds above: the buffer
	// records the monotonic time of its first accumulation
	// (Thread.PendingSince), every attempt boundary compares it against
	// this bound, and a backstop drains buffers whose owner has gone fully
	// idle — stopped transacting without calling Thread.Detach — so no
	// waiter ever sleeps past this delay behind an idle notifier. Zero
	// (the default) disables the age bound and restores the PR 5
	// attempt-triggered-only behaviour. Meaningless without
	// CoalesceCommits (there is no pending buffer to age-bound), which
	// NewSystem rejects.
	CoalesceMaxDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.TableSize == 0 {
		c.TableSize = locktable.DefaultSize
	}
	if c.Stripes == 0 {
		c.Stripes = locktable.DefaultStripes
		if c.Stripes > c.TableSize {
			c.Stripes = c.TableSize
		}
	}
	// Reject malformed stripe bounds and forced schedules here, at system
	// construction, rather than letting locktable panic on a committing
	// application thread at the first resize.
	for _, s := range c.ResizeSchedule {
		if s <= 0 || s&(s-1) != 0 {
			panic(fmt.Sprintf("tm: ResizeSchedule entry %d is not a positive power of two", s))
		}
	}
	if c.MinStripes < 0 || c.MinStripes&(c.MinStripes-1) != 0 {
		panic(fmt.Sprintf("tm: MinStripes %d is not a positive power of two", c.MinStripes))
	}
	if c.CoalesceCommits < 0 {
		panic(fmt.Sprintf("tm: CoalesceCommits %d is negative", c.CoalesceCommits))
	}
	if c.CoalesceCommits > 0 && c.UnbatchedWakeups {
		panic("tm: CoalesceCommits and UnbatchedWakeups are contradictory (a deferred scan is a batch carried across commits)")
	}
	if c.CoalesceMaxDelay < 0 {
		panic(fmt.Sprintf("tm: CoalesceMaxDelay %v is negative", c.CoalesceMaxDelay))
	}
	if c.CoalesceMaxDelay > 0 && c.CoalesceCommits == 0 {
		panic("tm: CoalesceMaxDelay without CoalesceCommits is meaningless (there is no pending buffer to age-bound)")
	}
	if c.MinStripes == 0 {
		c.MinStripes = c.Stripes
	}
	if c.MaxStripes == 0 {
		// Default to a pinned count, except that a forced-resize schedule
		// implies headroom for its largest entry.
		c.MaxStripes = c.Stripes
		for _, s := range c.ResizeSchedule {
			if s > c.MaxStripes {
				c.MaxStripes = s
			}
		}
	}
	if c.MaxStripes > c.TableSize {
		c.MaxStripes = c.TableSize
	}
	if c.MinStripes > c.MaxStripes {
		c.MinStripes = c.MaxStripes
	}
	if c.Stripes < c.MinStripes {
		c.Stripes = c.MinStripes
	}
	if c.Stripes > c.MaxStripes {
		c.Stripes = c.MaxStripes
	}
	if c.AdaptWindow == 0 {
		c.AdaptWindow = 64
	}
	if c.HTMReadCap == 0 {
		c.HTMReadCap = 4096
	}
	if c.HTMWriteCap == 0 {
		c.HTMWriteCap = 448
	}
	if c.HTMMaxRetries == 0 {
		c.HTMMaxRetries = 2
	}
	return c
}

// System owns one TM instance: an engine plus the shared metadata every
// engine needs. Distinct Systems are fully independent.
type System struct {
	Engine Engine
	Clock  clock.Source
	Table  *locktable.Table
	Cfg    Config
	Stats  Stats

	// PostCommit, if set, runs on the committing thread after every
	// writer commit (wakeWaiters of Algorithm 4). It is not re-entered
	// for commits performed inside the hook itself.
	//
	// writeOrecs and writeStripes are the committed attempt's lock set
	// and the stripes it covers, captured by the driver before any
	// OnCommit callback or nested transaction could overwrite per-thread
	// state. gen is the orec-table geometry generation the stripes were
	// named under (the attempt's TableView): a hook whose registries have
	// moved to a newer generation must re-derive stripes from writeOrecs
	// or fall back to a full scan. The hook must treat the slices as
	// read-only and must not retain them past its return: the driver
	// recycles the backing arrays for the thread's next commit.
	//
	//tm:hook
	PostCommit func(t *Thread, gen uint64, writeOrecs, writeStripes []uint32)

	// FlushWakeups, if set, drains the thread's pending deferred wake
	// scans (cross-commit wakeup coalescing). The driver invokes it — on
	// the owning thread, never concurrently — at every structural flush
	// bound it can see: attempts that abort or restart, attempts that end
	// without a writer commit, and before a Signal handler runs (the
	// handler may block). Thread.FlushPending is the guarded entry point;
	// the hook may run whole (read-only) transactions on the thread.
	//
	//tm:hook
	FlushWakeups func(t *Thread, why FlushReason)

	// Tracer, if set, receives driver-level execution events — aborts,
	// restarts, condition-synchronization blocks and wakes, and thread
	// detach — for recorded-trace capture (internal/trace). The hot commit
	// path is untouched: committed operations are recorded by the workload
	// layer, which knows their names; the driver reports only the control
	// transfers invisible to it. Nil outside recording runs, so every
	// emission site pays one predictable branch.
	//
	//tm:hook
	Tracer Tracer

	// WakeLatency, if set, receives the sleep-to-signal duration of every
	// semaphore sleep — Deschedule, Retry-Orig, and condition-variable
	// waits: the time from the waiter parking on its semaphore to the
	// signal releasing it. Installed by measurement harnesses
	// (internal/perf) before any thread runs and never changed afterwards;
	// nil outside benchmarks, so the sleep paths pay one predictable
	// branch. The callback runs on the woken thread and must be safe for
	// concurrent use.
	//
	//tm:hook
	WakeLatency func(d time.Duration)

	// Ext points at the condition-synchronization layer (package core)
	// when one is enabled; tm itself never inspects it.
	Ext any

	// SerialMu is the global serialization lock used by the HTM engine's
	// fallback path and by irrevocable sections.
	SerialMu     sync.Mutex
	SerialActive atomic.Int32

	mu      spin.Lock
	threads []*Thread
	nextID  atomic.Uint64

	pool blockPool
}

// NewSystem creates a System around the given engine factory. Engines are
// constructed by their packages via a func(*System) Engine so that they can
// capture the system's clock and table.
func NewSystem(cfg Config, mk func(*System) Engine) *System {
	cfg = cfg.withDefaults()
	s := &System{Cfg: cfg, Table: locktable.NewResizable(cfg.TableSize, cfg.Stripes, cfg.MaxStripes)}
	s.Clock = clock.New(&s.Stats.ClockAdvances)
	s.pool.init()
	s.Engine = mk(s)
	return s
}

// SemWait parks the calling goroutine on sm, reporting the sleep-to-signal
// duration to the WakeLatency hook when one is installed. Every
// condition-synchronization sleep (deschedule, Retry-Orig, condition-
// variable wait) funnels through it so latency instrumentation covers all
// sleep sites uniformly.
func (s *System) SemWait(sm *sem.Sem) {
	if fn := s.WakeLatency; fn != nil {
		t0 := mono.Now()
		sm.Wait()
		fn(t0.Elapsed())
		return
	}
	sm.Wait()
}

// Threads returns a snapshot of all threads registered with the system.
func (s *System) Threads() []*Thread {
	s.mu.Lock()
	out := make([]*Thread, len(s.threads))
	copy(out, s.threads)
	s.mu.Unlock()
	return out
}

// threadsUnlocked is used on hot paths (quiescence, HTM conflict scans)
// where the slice only grows and entries are immutable once published.
// Callers must tolerate a slightly stale length.
func (s *System) threadsUnlocked() []*Thread {
	s.mu.Lock()
	t := s.threads
	s.mu.Unlock()
	return t
}

// Quiesce blocks until every transaction that was active with a start time
// ≤ end has finished its current attempt, providing privatization safety
// after a writer commit (Appendix A, TxCommit line 20).
//
// Why the comparison is sound:
//
//   - A transaction that must be waited for is one that could have read
//     the pre-commit state of our write set. Such a transaction's
//     snapshot precedes our commit timestamp, so its published
//     ActiveStart (start+1) is <= end.
//
//   - A transaction with start >= end began after our commit timestamp
//     was fixed. If it touches our write set before our locks are
//     released it aborts on the locked orec; after release it reads the
//     committed values (version end <= its start). Either way it can
//     never observe pre-commit state, so skipping it is safe.
//
//   - Timestamp extension moves a live transaction's ActiveStart
//     forward, possibly past end, dropping it from our wait set. That
//     is safe for the same reason: extension revalidates every prior
//     read at the new snapshot, so a transaction extended past end has
//     proven it observed none of the pre-commit state.
func (s *System) Quiesce(self *Thread, end uint64) {
	threads := s.threadsUnlocked()
	for _, t := range threads {
		if t == self {
			continue
		}
		for {
			st := t.ActiveStart.Load()
			// st is 0 when inactive, startSentinel while the thread is
			// publishing, and start+1 otherwise. Wait for transactions
			// whose start precedes our commit time.
			if st == 0 || (st != startSentinel && st > end) {
				break
			}
			spinYield()
		}
	}
}

// Thread is the per-worker handle. Each goroutine that executes
// transactions must own exactly one Thread, created with NewThread.
type Thread struct {
	ID  uint64
	Sys *System
	Tx  Tx
	Sem *sem.Sem

	// ActiveStart publishes the start time of an in-flight attempt for
	// quiescence (0 = no attempt in flight).
	ActiveStart atomic.Uint64

	// Simulated-HTM state: a read/write signature for eager conflict
	// detection, an active flag, and a doomed flag set by conflicting
	// committers (the cache-invalidation abort of best-effort HTM).
	HWActive atomic.Bool
	Doomed   atomic.Bool
	Sig      [SigWords]atomic.Uint64

	// Waiter is owned by the condition-synchronization layer (package
	// core); tm never touches it.
	Waiter any

	// Pending* is the thread's deferred wake-scan buffer (cross-commit
	// wakeup coalescing, Config.CoalesceCommits): the merged write orecs
	// and stripes of PendingCommits writer commits whose post-commit scans
	// have not run yet. PendingStripes is named under generation
	// PendingGen; PendingFull records that some accumulated commit logged
	// no orecs (the HTM serial fallback), forcing the flush to scan every
	// shard. PendingSince is the monotonic time of the buffer's first
	// accumulation, which Config.CoalesceMaxDelay ages against.
	//
	// The buffer is maintained by the condition-synchronization layer.
	// Mutations come from the owning thread, with one exception: the age
	// backstop may claim and drain the buffer of an owner that has gone
	// idle. PendingMu is the ownership latch both sides take around every
	// access to the fields below it; it is uncontended in steady state
	// (the backstop only reaches for overdue buffers), so the owner pays a
	// single uncontended CAS per touch. PendingActive mirrors "buffer
	// non-empty" for lock-free gating on hot paths (Tx.Read,
	// FlushPending); it is written only with the latch held.
	// PendingReadHit is set by Tx.Read when a transaction reads back into
	// a pending stripe, requesting a flush at the attempt's end; it is
	// monotonic within an attempt and read only by the owner, so it needs
	// no latch, just atomicity. PendingIdle counts read-only attempts
	// finished since the buffer started pending; the condition-
	// synchronization layer flushes when it reaches the commit bound, so a
	// thread that stops writing but keeps transacting cannot delay its
	// deferred wakeups unboundedly.
	PendingActive  atomic.Bool
	PendingReadHit atomic.Bool
	PendingMu      spin.Lock
	PendingGen     uint64
	PendingOrecs   []uint32
	PendingStripes []uint32
	PendingCommits int
	PendingIdle    int
	PendingSince   int64
	PendingFull    bool

	// DeferredAllocs holds allocations whose undo was postponed by a
	// deschedule (captured-memory rule of Algorithm 6).
	DeferredAllocs [][]uint64

	// postOrecs/postStripes are the scratch buffers the driver copies a
	// committed attempt's write orecs and stripes into before handing
	// them to the PostCommit hook. They are swapped out (set nil) for
	// the duration of the deferred OnCommit callbacks and the hook
	// itself, so a callback that commits its own transaction on this
	// thread allocates a fresh buffer instead of clobbering the capture
	// the outer commit's wake scan is about to use.
	postOrecs   []uint32
	postStripes []uint32

	inPostCommit bool
	backoff      spin.Backoff
}

// SigWords is the size of the simulated hardware signature (512 bits).
const SigWords = 8

// NewThread registers a new worker with the system.
func (s *System) NewThread() *Thread {
	id := s.nextID.Add(1)
	if id > locktable.MaxOwner {
		panic("tm: thread id space exhausted")
	}
	t := &Thread{ID: id, Sys: s, Sem: sem.New()}
	t.Tx.Thr = t
	t.Tx.Sys = s
	t.Tx.rng = id*0x9e3779b97f4a7c15 + 1
	s.mu.Lock()
	s.threads = append(s.threads, t)
	s.mu.Unlock()
	return t
}

// FlushPending invokes the system's FlushWakeups hook if the thread holds
// deferred wake scans; the common empty case is two loads. It must only be
// called from the owning thread, outside any in-flight attempt (the hook
// runs read-only transactions on this descriptor).
func (t *Thread) FlushPending(why FlushReason) {
	if t.PendingActive.Load() && t.Sys.FlushWakeups != nil {
		t.Sys.FlushWakeups(t, why)
	}
}

// Detach flushes the thread's deferred wake scans at teardown. A worker
// running with Config.CoalesceCommits > 0 must call it when it stops
// executing transactions for good — no other flush bound would ever trip
// again, and a waiter claimed by one of the thread's unscanned commits
// would otherwise sleep forever. A no-op (and nil-safe, for the Pthreads
// baseline's nil thread handles) in every other configuration; the thread
// stays registered and may keep running transactions afterwards.
func (t *Thread) Detach() {
	if t == nil {
		return
	}
	t.FlushPending(FlushTeardown)
	t.traceEvent(TraceDetach, 0)
}

// traceEvent reports one driver-level event to the system's Tracer hook;
// the common untraced case is one load and a branch.
func (t *Thread) traceEvent(kind TraceKind, arg uint64) {
	if tr := t.Sys.Tracer; tr != nil {
		tr.TraceEvent(t, kind, arg)
	}
}

// SigReset clears the hardware signature.
func (t *Thread) SigReset() {
	for i := range t.Sig {
		t.Sig[i].Store(0)
	}
}

// SigAdd marks orec slot idx in the hardware signature.
func (t *Thread) SigAdd(idx uint32) {
	b := idx % (SigWords * 64)
	t.Sig[b/64].Or(1 << (b % 64))
}

// SigMightContain reports whether orec slot idx may be in the signature.
func (t *Thread) SigMightContain(idx uint32) bool {
	b := idx % (SigWords * 64)
	return t.Sig[b/64].Load()&(1<<(b%64)) != 0
}

// Atomic executes fn as a transaction, retrying on conflicts and handling
// condition-synchronization signals until fn commits. Nested calls flatten
// into the outer transaction (subsumption nesting). fn must be safe to
// re-execute: all its effects on shared state must go through tx.
func (t *Thread) Atomic(fn func(tx *Tx)) {
	tx := &t.Tx
	if tx.Nesting > 0 {
		tx.Nesting++
		// The decrement must survive control-transfer panics so that the
		// outer driver sees a consistent depth when it re-executes.
		defer func() { tx.Nesting-- }()
		fn(tx)
		return
	}
	tx.Attempts = 0
	tx.IsRetry = false
	tx.ResetWaitset()
	t.backoff.Reset()
	for {
		res := t.attempt(tx, fn)
		switch res.kind {
		case attemptCommitted:
			return
		case attemptAborted:
			t.Sys.Engine.Rollback(tx)
			t.Sys.ExitSerialIfHeld(tx)
			tx.Nesting = 0
			t.ActiveStart.Store(0)
			tx.resetAfterAttempt(false)
			t.recordAbort(res.reason)
			t.traceEvent(TraceAbort, uint64(res.reason))
			// An abort is a flush bound for coalesced wake scans: the
			// conflict this attempt lost may be against the very threads
			// the deferred scans would wake. Runs after the reset, so the
			// flush's predicate transactions see a clean descriptor.
			t.FlushPending(FlushAbort)
			t.backoff.Wait()
		case attemptRestart:
			t.Sys.Engine.Rollback(tx)
			t.Sys.ExitSerialIfHeld(tx)
			tx.Nesting = 0
			t.ActiveStart.Store(0)
			tx.resetAfterAttempt(false)
			t.traceEvent(TraceAbort, TraceRestartArg)
			t.FlushPending(FlushAbort)
			// Immediate re-execution; the Restart baseline relies on the
			// lack of backoff growth here. A bare processor yield is still
			// required: without it a respinning reader starves the writer
			// that would establish its precondition whenever goroutines
			// outnumber cores (worst on a single-core box, where each
			// respin burned a whole preemption quantum).
			spinYield()
		case attemptSignal:
			t.Sys.Engine.Rollback(tx)
			// Release exclusivity before the handler sleeps, or a
			// descheduled irrevocable transaction would block the world.
			t.Sys.ExitSerialIfHeld(tx)
			tx.Nesting = 0
			t.ActiveStart.Store(0)
			// Reset BEFORE Handle: handlers run fresh transactions on this
			// descriptor (predicate double-checks), which must not inherit
			// the rolled-back attempt's logs — a stale redo log would be
			// written back by the inner commit. Handlers capture anything
			// they need from the attempt when they raise the signal.
			tx.resetAfterAttempt(false)
			// Signal handlers typically put the thread to sleep; flush any
			// coalesced wake scans first so this thread never blocks while
			// holding wakeups other threads are waiting for. (The condvar
			// handler flushes again after its own punctuation-commit scan.)
			t.FlushPending(FlushBlock)
			t.traceEvent(TraceBlock, 0)
			out := res.sig.Handle(tx)
			t.traceEvent(TraceWake, 0)
			if out == OutcomeRetry {
				t.backoff.Wait()
			}
		}
	}
}

type attemptKind int

const (
	attemptCommitted attemptKind = iota
	attemptAborted
	attemptRestart
	attemptSignal
)

type attemptResult struct {
	kind   attemptKind
	reason AbortReason
	sig    Signal
}

func (t *Thread) attempt(tx *Tx, fn func(tx *Tx)) (res attemptResult) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch s := r.(type) {
		case abortSig:
			res = attemptResult{kind: attemptAborted, reason: s.reason}
		case restartSig:
			res = attemptResult{kind: attemptRestart}
		case Signal:
			res = attemptResult{kind: attemptSignal, sig: s}
		default:
			// A genuine (user) panic: clean up engine state so locks are
			// not leaked, then propagate.
			t.Sys.Engine.Rollback(tx)
			t.Sys.ExitSerialIfHeld(tx)
			tx.Nesting = 0
			t.ActiveStart.Store(0)
			tx.resetAfterAttempt(false)
			panic(r)
		}
	}()
	tx.Attempts++
	tx.Nesting = 1
	if tx.IsRetry {
		// A fresh tagged attempt rebuilds the waitset from scratch; stale
		// pairs from an aborted attempt would cause futile wakeups.
		tx.ResetWaitset()
	}
	if tx.WantIrrevocable {
		// Irrevocable attempt: run under system-wide exclusivity so the
		// transaction's effects (including I/O) can never be rolled back
		// by a conflict.
		tx.WantIrrevocable = false
		t.Sys.EnterSerial(t)
		tx.SerialHeld = true
		t.Sys.Stats.Serializations.Add(1)
	}
	t.Sys.Engine.Begin(tx)
	fn(tx)
	// Capture write-ness before Commit: engines may consume their logs
	// while committing, and the PostCommit hook must still fire.
	wrote := tx.DidWrite()
	t.Sys.Engine.Commit(tx)
	t.Sys.ExitSerialIfHeld(tx)
	tx.Nesting = 0
	t.ActiveStart.Store(0)
	// Capture the write set into the thread's scratch buffers and detach
	// them: deferred OnCommit callbacks below may run whole transactions on
	// this thread (e.g. a condition-variable signal chain), and those
	// nested commits must not reuse — and thereby clobber — the backing
	// arrays the outer commit's wake scan is about to be handed. A nested
	// commit finds postOrecs nil, allocates its own capture, and restores
	// it on return; our locals stay intact throughout.
	writeOrecs := append(t.postOrecs[:0], tx.WriteOrecs...)
	writeStripes := append(t.postStripes[:0], tx.WriteStripes...)
	gen := tx.TableView.Gen
	t.postOrecs, t.postStripes = nil, nil
	deferred := tx.OnCommit
	tx.OnCommit = nil
	tx.resetAfterAttempt(true)
	if wrote {
		t.Sys.Stats.Commits.Add(1)
	} else {
		t.Sys.Stats.ROCommits.Add(1)
	}
	for _, f := range deferred {
		f()
	}
	if wrote && t.Sys.PostCommit != nil && !t.inPostCommit {
		t.inPostCommit = true
		t.Sys.PostCommit(t, gen, writeOrecs, writeStripes)
		t.inPostCommit = false
	} else if !wrote && !t.inPostCommit {
		// A read-only commit is a flush point for coalesced wake scans iff
		// the attempt read a pending stripe (the hook checks); a thread
		// polling data its own unscanned commits changed must not leave
		// the waiters on that data deferred.
		t.FlushPending(FlushAttemptEnd)
	}
	t.postOrecs, t.postStripes = writeOrecs[:0], writeStripes[:0]
	return attemptResult{kind: attemptCommitted}
}

func (t *Thread) recordAbort(r AbortReason) {
	st := &t.Sys.Stats
	st.Aborts.Add(1)
	switch r {
	case AbortConflict:
		st.ConflictAborts.Add(1)
	case AbortCapacity:
		st.CapacityAborts.Add(1)
	case AbortSpurious:
		st.SpuriousAborts.Add(1)
	case AbortExplicit:
		st.ExplicitAborts.Add(1)
	}
}

// InTx reports whether the thread has a transaction in flight.
func (t *Thread) InTx() bool { return t.Tx.Nesting > 0 }

// blockPool recycles transactional allocations, keyed by block size.
type blockPool struct {
	mu    spin.Lock
	lists map[int][][]uint64
}

func (p *blockPool) init() { p.lists = make(map[int][][]uint64) }

func (p *blockPool) get(n int) []uint64 {
	p.mu.Lock()
	l := p.lists[n]
	if len(l) > 0 {
		b := l[len(l)-1]
		p.lists[n] = l[:len(l)-1]
		p.mu.Unlock()
		clear(b)
		return b
	}
	p.mu.Unlock()
	return make([]uint64, n)
}

func (p *blockPool) put(b []uint64) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.lists[len(b)] = append(p.lists[len(b)], b)
	p.mu.Unlock()
}

// FreeBlocks returns blocks to the allocation pool. The Deschedule
// protocol uses it to finally undo allocations whose reclamation was
// deferred across a sleep (captured memory, Algorithm 6).
func (s *System) FreeBlocks(blocks [][]uint64) {
	for _, b := range blocks {
		s.pool.put(b)
	}
}
