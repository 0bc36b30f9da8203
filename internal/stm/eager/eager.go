// Package eager implements the undo-log software TM of Appendix A
// (Algorithms 8–11): word-based, encounter-time locking, in-place updates,
// a TL2-style logical clock, per-read consistency checks, commit-time read
// validation, and post-commit quiescence for privatization safety. It
// corresponds to the GCC "ml-wt" configuration of the evaluation (a
// privatization-safe variant of TinySTM with undo logs).
package eager

import (
	"sync/atomic"

	"tmsync/internal/locktable"
	"tmsync/internal/tm"
)

// Engine is the eager STM back end. Construct with New.
type Engine struct {
	sys *tm.System
}

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine { return &Engine{sys: sys} }

// Name implements tm.Engine.
func (e *Engine) Name() string { return "eager" }

// Begin samples the clock and publishes the attempt for quiescence
// (Algorithm 9, TxBegin), waiting out any irrevocable section.
func (e *Engine) Begin(tx *tm.Tx) {
	tx.Mode = tm.ModeSTM
	tx.StampTableView()
	tx.Start = tx.Thr.PublishStartSerialAware(tx)
}

// Read implements Algorithm 10's TxRead: atomically read the lock object,
// the location, then the lock object again, and succeed only when the
// caller holds the lock or the read is consistent with the start time.
// When the transaction is re-executing for Retry it also logs the
// committed address/value pair to the waitset (Algorithm 5).
func (e *Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	idx := e.sys.Table.IndexOf(addr)
	w1 := e.sys.Table.Get(idx)
	val := atomic.LoadUint64(addr)
	w2 := e.sys.Table.Get(idx)

	if locktable.Locked(w1) && locktable.Owner(w1) == tx.Thr.ID {
		if tx.IsRetry {
			// The in-memory value may be this transaction's own
			// speculative write; the waitset needs the committed value,
			// which the oldest undo-log entry preserves (Algorithm 5).
			if old, ok := tx.OldValue(addr); ok {
				tx.LogWait(addr, old)
			} else {
				tx.LogWait(addr, val)
			}
		}
		return val
	}
	if w1 == w2 && !locktable.Locked(w1) {
		ver := locktable.Version(w1)
		if ver <= tx.Start {
			tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx, Ver: ver})
			if tx.IsRetry {
				tx.LogWait(addr, val)
			}
			return val
		}
		// Too new. After a successful extension the consistent sample
		// (val, ver) taken above is still current iff the extended start
		// covers ver and the orec is unchanged. The ver <= tx.Start
		// recheck is load-bearing: the extension validates the read set,
		// not the sample in hand, so without it the snapshot could record
		// a read it does not cover. The word recheck is sound
		// because orec versions strictly increase across lock cycles
		// (clock.Source invariant), so an equal word means no
		// intervening commit; checking it (after tryExtend sampled the
		// clock) is cheaper than re-reading the location.
		if e.sys.Cfg.TimestampExtension && e.tryExtend(tx) && ver <= tx.Start && e.sys.Table.Get(idx) == w1 {
			tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx, Ver: ver})
			if tx.IsRetry {
				tx.LogWait(addr, val)
			}
			return val
		}
	}
	tx.Abort(tm.AbortConflict)
	panic("unreachable")
}

// tryExtend implements timestamp extension: if every prior read's orec
// still carries the version observed at read time, the transaction's
// snapshot is valid at the current clock, so its start time may advance
// instead of aborting on a too-new read.
//
//tm:extend
func (e *Engine) tryExtend(tx *tm.Tx) bool {
	now := e.sys.Clock.Now()
	for i := range tx.Reads {
		w := e.sys.Table.Get(tx.Reads[i].Orec)
		if locktable.Locked(w) && locktable.Owner(w) != tx.Thr.ID {
			return false
		}
		if locktable.Version(w) != tx.Reads[i].Ver {
			return false
		}
	}
	tx.Start = now
	tx.Thr.ActiveStart.Store(now + 1)
	return true
}

// Write implements Algorithm 10's TxWrite: acquire the covering orec with
// CAS (keeping its version for abort), record the old value in the undo
// log, and update memory in place.
func (e *Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	idx := e.sys.Table.IndexOf(addr)
	w := e.sys.Table.Get(idx)

	if locktable.Locked(w) && locktable.Owner(w) == tx.Thr.ID {
		tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: addr, Old: atomic.LoadUint64(addr)})
		atomic.StoreUint64(addr, val)
		return
	}
	if !locktable.Locked(w) {
		ver := locktable.Version(w)
		ok := ver <= tx.Start
		if !ok {
			// As in Read, the post-extension ver <= tx.Start recheck is
			// required: without it a version the extended snapshot never
			// covered could be locked and committed.
			// The orec-word recheck is subsumed by the CAS below (it
			// only succeeds against the sampled word w), but stating it
			// here keeps the extension-acceptance shape uniform across
			// engines and lets extrecheck verify it structurally.
			ok = e.sys.Cfg.TimestampExtension && e.tryExtend(tx) && ver <= tx.Start && e.sys.Table.Get(idx) == w
		}
		if ok && e.sys.Table.CAS(idx, w, locktable.LockedBy(tx.Thr.ID, ver)) {
			tx.Locks = append(tx.Locks, idx)
			tx.NoteWriteStripe(idx)
			tx.Undo = append(tx.Undo, tm.UndoEntry{Addr: addr, Old: atomic.LoadUint64(addr)})
			atomic.StoreUint64(addr, val)
			return
		}
	}
	tx.Abort(tm.AbortConflict)
}

// Commit implements Algorithm 9's TxCommit: read-only transactions commit
// for free; writers take a commit timestamp, validate their read set
// (unless the clock proves exclusivity — the TL2 end == start+1 fast
// path), release locks at the new version, and quiesce for privatization
// safety.
func (e *Engine) Commit(tx *tm.Tx) {
	if len(tx.Locks) == 0 {
		return
	}
	end, exclusive := e.sys.Clock.Commit(tx.Start, 0)
	if !exclusive && !e.validateReads(tx) {
		tx.Abort(tm.AbortConflict)
	}
	// An online stripe resize since Begin invalidates the attempt's
	// write-stripe set; abort and re-execute against the new geometry.
	tx.RevalidateTableGen()
	tx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)
	for _, idx := range tx.Locks {
		e.sys.Table.Set(idx, locktable.UnlockedAt(end))
	}
	tx.Locks = tx.Locks[:0]
	tx.Undo = tx.Undo[:0]
	if e.sys.Cfg.Quiesce {
		// The transaction is logically committed: retire its activity
		// before quiescing, or two committers would wait on each other.
		tx.Thr.ActiveStart.Store(0)
		e.sys.Quiesce(tx.Thr, end)
	}
}

func (e *Engine) validateReads(tx *tm.Tx) bool {
	for i := range tx.Reads {
		w := e.sys.Table.Get(tx.Reads[i].Orec)
		if locktable.Locked(w) {
			if locktable.Owner(w) != tx.Thr.ID {
				return false
			}
		} else if locktable.Version(w) > tx.Start {
			return false
		}
	}
	return true
}

// Validate implements tm.Engine.
func (e *Engine) Validate(tx *tm.Tx) bool { return e.validateReads(tx) }

// Rollback implements Algorithm 11's TxAbort: undo writes in reverse,
// bump the clock once, and release locks with an incremented version so
// concurrent TxReads notice. The bump precedes the release so that the
// republished versions are already covered by the clock when they become
// visible — a version ahead of the clock could be handed out again by a
// concurrent Commit, breaking the strict per-orec version increase that
// timestamp extension relies on. It is safe to
// call when the undo log has already been applied (AwaitSnapshot) and is
// idempotent across repeated calls.
//
//tm:rollback
func (e *Engine) Rollback(tx *tm.Tx) {
	for i := len(tx.Undo) - 1; i >= 0; i-- {
		atomic.StoreUint64(tx.Undo[i].Addr, tx.Undo[i].Old)
	}
	tx.Undo = tx.Undo[:0]
	if len(tx.Locks) == 0 {
		return
	}
	e.sys.Clock.Bump()
	for _, idx := range tx.Locks {
		w := e.sys.Table.Get(idx)
		e.sys.Table.Set(idx, locktable.UnlockedAt(locktable.Version(w)+1))
	}
	tx.Locks = tx.Locks[:0]
}

// AwaitSnapshot implements the Await re-read step (Algorithm 6): undo the
// transaction's writes while still holding their locks (releasing would be
// incorrect for read-for-write accesses), then for each address perform a
// read that is consistent with the whole transaction and log the observed
// value to the waitset. The caller subsequently deschedules, at which point
// Rollback releases the retained locks.
func (e *Engine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	for i := len(tx.Undo) - 1; i >= 0; i-- {
		atomic.StoreUint64(tx.Undo[i].Addr, tx.Undo[i].Old)
	}
	tx.Undo = tx.Undo[:0]
	for _, addr := range addrs {
		idx := e.sys.Table.IndexOf(addr)
		w1 := e.sys.Table.Get(idx)
		val := atomic.LoadUint64(addr)
		if locktable.Locked(w1) && locktable.Owner(w1) == tx.Thr.ID {
			tx.LogWait(addr, val)
			continue
		}
		w2 := e.sys.Table.Get(idx)
		if w1 == w2 && !locktable.Locked(w1) {
			if locktable.Version(w1) <= tx.Start {
				tx.LogWait(addr, val)
				continue
			}
		}
		tx.Abort(tm.AbortConflict)
	}
}
