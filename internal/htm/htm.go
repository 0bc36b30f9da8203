// Package htm simulates a best-effort hardware transactional memory with a
// GCC-style software fallback, standing in for Intel TSX which is not
// available in this environment (see DESIGN.md §2).
//
// The simulation reproduces the behaviours the paper's evaluation depends
// on:
//
//   - Speculative writes are invisible (buffered) until commit.
//   - Conflicts abort transactions eagerly: a committing writer "invalidates
//     the cache lines" of concurrent hardware transactions by matching its
//     write set against their read/write signatures and dooming overlaps —
//     including read-only transactions such as wakeWaiters (§2.4.1).
//   - Read- and write-set capacity is bounded; exceeding it aborts.
//   - Optional spurious aborts model interrupts/false sharing.
//   - After HTMMaxRetries aborts the transaction serializes on a global
//     lock and runs to completion (GCC's progress guarantee).
//   - Hardware mode has no escape actions: transactions that must log a
//     waitset or deschedule re-execute in ModeSerial, an instrumented
//     software mode under the serial lock (§2.2.3).
//
// Safety does not rest on the signatures alone: commit-time validation of
// the read set against orec versions guarantees serializability even if a
// signature race misses a doom, so the signatures only shape abort
// behaviour, never correctness.
package htm

import (
	"sync/atomic"

	"tmsync/internal/locktable"
	"tmsync/internal/tm"
)

// Engine is the simulated-HTM back end. Construct with New.
type Engine struct {
	sys *tm.System
}

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine { return &Engine{sys: sys} }

// Name implements tm.Engine.
func (e *Engine) Name() string { return "htm" }

// Begin chooses between hardware and serial-software execution. Hardware
// attempts wait out an active serial section; serial attempts doom every
// in-flight hardware transaction, exactly as acquiring the fallback lock
// aborts subscribed hardware transactions on real hardware.
func (e *Engine) Begin(tx *tm.Tx) {
	if tx.SerialHeld {
		// The driver already serialized this attempt (irrevocability);
		// run it directly in the instrumented software mode.
		tx.Mode = tm.ModeSerial
		tx.StampTableView()
		tx.Start = tx.Thr.PublishStart()
		return
	}
	if tx.WantSoftware || tx.IsRetry || tx.Attempts > e.sys.Cfg.HTMMaxRetries {
		e.beginSerial(tx)
		return
	}
	for e.sys.SerialActive.Load() != 0 {
		yield()
	}
	t := tx.Thr
	t.Doomed.Store(false)
	t.SigReset()
	t.HWActive.Store(true)
	// Re-check after publishing activity: if a serial section began in the
	// window, it may not have seen us; stand down and wait.
	if e.sys.SerialActive.Load() != 0 {
		t.HWActive.Store(false)
		for e.sys.SerialActive.Load() != 0 {
			yield()
		}
		t.Doomed.Store(false)
		t.HWActive.Store(true)
	}
	tx.Mode = tm.ModeHW
	tx.StampTableView()
	tx.Start = t.PublishStart()
}

func (e *Engine) beginSerial(tx *tm.Tx) {
	tx.WantSoftware = false
	e.sys.SerialMu.Lock()
	e.sys.SerialActive.Store(1)
	tx.SerialHeld = true
	e.sys.Stats.Serializations.Add(1)
	// Doom all in-flight hardware transactions and wait for them to drain,
	// so the serial section runs truly alone.
	for _, t := range e.sys.Threads() {
		if t == tx.Thr {
			continue
		}
		if t.HWActive.Load() {
			t.Doomed.Store(true)
		}
	}
	for _, t := range e.sys.Threads() {
		if t == tx.Thr {
			continue
		}
		for t.HWActive.Load() {
			t.Doomed.Store(true)
			yield()
		}
	}
	tx.Mode = tm.ModeSerial
	tx.StampTableView()
	tx.Start = tx.Thr.PublishStart()
}

func (e *Engine) releaseSerial(tx *tm.Tx) {
	if !tx.SerialHeld {
		return
	}
	tx.SerialHeld = false
	e.sys.SerialActive.Store(0)
	e.sys.SerialMu.Unlock()
}

// checkHW aborts if the hardware transaction has been doomed by a
// conflicting committer or draws a simulated spurious abort.
func (e *Engine) checkHW(tx *tm.Tx) {
	if tx.Thr.Doomed.Load() {
		tx.Thr.HWActive.Store(false)
		tx.Abort(tm.AbortConflict)
	}
	if p := e.sys.Cfg.HTMSpuriousAbortPerMille; p > 0 && tx.Rand()%1000 < uint64(p) {
		tx.Thr.HWActive.Store(false)
		tx.Abort(tm.AbortSpurious)
	}
}

// Read implements tm.Engine.
func (e *Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	if tx.Mode == tm.ModeSerial {
		val := atomic.LoadUint64(addr)
		if tx.IsRetry {
			if old, ok := tx.OldValue(addr); ok {
				tx.LogWait(addr, old)
			} else {
				tx.LogWait(addr, val)
			}
		}
		return val
	}
	e.checkHW(tx)
	if buf, ok := tx.Redo.Get(addr); ok {
		return buf
	}
	idx := e.sys.Table.IndexOf(addr)
	w1 := e.sys.Table.Get(idx)
	val := atomic.LoadUint64(addr)
	w2 := e.sys.Table.Get(idx)
	if w1 != w2 || locktable.Locked(w1) || locktable.Version(w1) > tx.Start {
		tx.Thr.HWActive.Store(false)
		tx.Abort(tm.AbortConflict)
	}
	tx.Thr.SigAdd(idx)
	tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx})
	tx.HWReads++
	if tx.HWReads > e.sys.Cfg.HTMReadCap {
		tx.Thr.HWActive.Store(false)
		tx.Abort(tm.AbortCapacity)
	}
	return val
}

// Write implements tm.Engine.
func (e *Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	if tx.Mode == tm.ModeSerial {
		// Serial-mode stores bypass orec acquisition (the section runs
		// alone), but the post-commit wakeup still needs to know which
		// stripes the write set covers, so record the covering orec's
		// stripe (deduplicated) here. The orec itself is not logged: the
		// write-orec capture feeds only Retry-Orig, which this engine
		// rejects.
		tx.NoteWriteStripe(e.sys.Table.IndexOf(addr))
		tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: addr, Old: atomic.LoadUint64(addr)})
		atomic.StoreUint64(addr, val)
		return
	}
	e.checkHW(tx)
	idx := e.sys.Table.IndexOf(addr)
	tx.Thr.SigAdd(idx)
	if _, dup := tx.Redo.Get(addr); !dup {
		tx.HWWrites++
		if tx.HWWrites > e.sys.Cfg.HTMWriteCap {
			tx.Thr.HWActive.Store(false)
			tx.Abort(tm.AbortCapacity)
		}
	}
	tx.Redo.Put(addr, val, idx)
}

// Commit implements tm.Engine. Hardware commits acquire the write set's
// orecs, validate the read set (the safety net behind the signatures),
// doom concurrent hardware transactions whose signatures overlap the write
// set (eager invalidation), write back, and release. Serial commits simply
// bump the clock and release the serial lock.
func (e *Engine) Commit(tx *tm.Tx) {
	if tx.Mode == tm.ModeSerial {
		if len(tx.Undo) > 0 {
			// Even the serial fallback names write stripes for the
			// post-commit wakeup, so a resize since Begin aborts it too
			// (Rollback undoes the in-place writes and releases the lock).
			tx.RevalidateTableGen()
			e.sys.Clock.Bump()
			tx.Undo = tx.Undo[:0]
		}
		e.releaseSerial(tx)
		return
	}
	e.checkHW(tx)
	t := tx.Thr
	if tx.Redo.Len() == 0 {
		t.HWActive.Store(false)
		return
	}
	for i := range tx.Redo.Entries {
		idx := tx.Redo.Entries[i].Orec
		if e.holds(tx, idx) {
			continue
		}
		w := e.sys.Table.Get(idx)
		if locktable.Locked(w) || !e.sys.Table.CAS(idx, w, locktable.LockedBy(t.ID, locktable.Version(w))) {
			t.HWActive.Store(false)
			tx.Abort(tm.AbortConflict)
		}
		tx.Locks = append(tx.Locks, idx)
		tx.NoteWriteStripe(idx)
	}
	end, exclusive := e.sys.Clock.Commit(tx.Start, 0)
	if !exclusive && !e.validateReads(tx) {
		t.HWActive.Store(false)
		tx.Abort(tm.AbortConflict)
	}
	// An online stripe resize since Begin invalidates the attempt's
	// write-stripe set; abort (Rollback clears HWActive) and re-execute
	// against the new geometry.
	tx.RevalidateTableGen()
	// WriteOrecs stays empty: it feeds only Retry-Orig, which this engine
	// rejects, and an empty lock-set snapshot lets origWake return without
	// touching its global lock. Wakeups ride on WriteStripes instead.
	// Eager invalidation: doom concurrent hardware transactions whose
	// signature may overlap our write set. This is what makes read-only
	// wakeWaiters transactions abort under writer pressure (§2.4.1).
	others := e.sys.Threads()
	for i := range tx.Redo.Entries {
		idx := tx.Redo.Entries[i].Orec
		for _, o := range others {
			if o != t && o.HWActive.Load() && o.SigMightContain(idx) {
				o.Doomed.Store(true)
			}
		}
	}
	for i := range tx.Redo.Entries {
		atomic.StoreUint64(tx.Redo.Entries[i].Addr, tx.Redo.Entries[i].Val)
	}
	for _, idx := range tx.Locks {
		e.sys.Table.Set(idx, locktable.UnlockedAt(end))
	}
	tx.Locks = tx.Locks[:0]
	t.HWActive.Store(false)
}

func (e *Engine) holds(tx *tm.Tx, idx uint32) bool {
	for _, l := range tx.Locks {
		if l == idx {
			return true
		}
	}
	return false
}

func (e *Engine) validateReads(tx *tm.Tx) bool {
	for i := range tx.Reads {
		w := e.sys.Table.Get(tx.Reads[i].Orec)
		if locktable.Locked(w) {
			if locktable.Owner(w) != tx.Thr.ID || locktable.Version(w) > tx.Start {
				return false
			}
		} else if locktable.Version(w) > tx.Start {
			return false
		}
	}
	return true
}

// Validate implements tm.Engine.
func (e *Engine) Validate(tx *tm.Tx) bool {
	if tx.Mode == tm.ModeSerial {
		return true
	}
	return e.validateReads(tx)
}

// Rollback implements tm.Engine. Serial attempts undo their in-place
// writes and release the serial lock; hardware attempts discard the redo
// buffer and release any commit-time locks.
//
//tm:rollback
func (e *Engine) Rollback(tx *tm.Tx) {
	if tx.SerialHeld {
		for i := len(tx.Undo) - 1; i >= 0; i-- {
			atomic.StoreUint64(tx.Undo[i].Addr, tx.Undo[i].Old)
		}
		tx.Undo = tx.Undo[:0]
		e.releaseSerial(tx)
		return
	}
	tx.Thr.HWActive.Store(false)
	if len(tx.Locks) == 0 {
		return
	}
	// Bump before releasing: the republished versions must already be
	// covered by the clock when they become visible, or a concurrent
	// Commit could hand the same version out again.
	e.sys.Clock.Bump()
	for _, idx := range tx.Locks {
		w := e.sys.Table.Get(idx)
		e.sys.Table.Set(idx, locktable.UnlockedAt(locktable.Version(w)+1))
	}
	tx.Locks = tx.Locks[:0]
}

// AwaitSnapshot implements tm.Engine. In hardware mode escape actions are
// unavailable, so the caller (core.Await) switches to software first; in
// serial mode the section runs alone, so after undoing its writes the
// committed values can be read directly.
func (e *Engine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	if tx.Mode != tm.ModeSerial {
		panic("htm: AwaitSnapshot requires software (serial) mode")
	}
	for i := len(tx.Undo) - 1; i >= 0; i-- {
		atomic.StoreUint64(tx.Undo[i].Addr, tx.Undo[i].Old)
	}
	tx.Undo = tx.Undo[:0]
	for _, addr := range addrs {
		tx.LogWait(addr, atomic.LoadUint64(addr))
	}
}
