// Package lazy implements a redo-log software TM in the style of TL2:
// writes are buffered until commit, locks are acquired at commit time, and
// the read set is validated against a global logical clock. It corresponds
// to the "Lazy STM" configuration of the evaluation (a privatization-safe
// TL2 variant).
package lazy

import (
	"sync/atomic"

	"tmsync/internal/locktable"
	"tmsync/internal/tm"
)

// Engine is the lazy STM back end. Construct with New.
type Engine struct {
	sys *tm.System
}

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine { return &Engine{sys: sys} }

// Name implements tm.Engine.
func (e *Engine) Name() string { return "lazy" }

// Begin samples the clock and publishes the attempt for quiescence,
// waiting out any irrevocable section.
func (e *Engine) Begin(tx *tm.Tx) {
	tx.Mode = tm.ModeSTM
	tx.StampTableView()
	tx.Start = tx.Thr.PublishStartSerialAware(tx)
}

// sampleRead performs a consistent read of committed memory: orec, value,
// orec again, unlocked and no newer than the transaction's start. A
// too-new version first tries timestamp extension (when enabled and the
// caller permits it) before aborting.
func (e *Engine) sampleRead(tx *tm.Tx, addr *uint64, extend bool) (uint64, uint32, uint64) {
	idx := e.sys.Table.IndexOf(addr)
	w1 := e.sys.Table.Get(idx)
	val := atomic.LoadUint64(addr)
	w2 := e.sys.Table.Get(idx)
	if w1 == w2 && !locktable.Locked(w1) {
		v := locktable.Version(w1)
		if v <= tx.Start {
			return val, idx, v
		}
		// After a successful extension the consistent sample (val, v) is
		// still current iff the extended start covers v and the orec is
		// unchanged. The v <= tx.Start recheck is load-bearing: the
		// extension validates the read set, not the sample in hand.
		// The word recheck is sound because versions strictly increase
		// across lock cycles (clock.Source invariant), so an equal word
		// means no intervening commit; checking it (after tryExtend
		// sampled the clock) is cheaper than re-sampling the location.
		if extend && e.sys.Cfg.TimestampExtension && e.tryExtend(tx) && v <= tx.Start && e.sys.Table.Get(idx) == w1 {
			return val, idx, v
		}
	}
	tx.Abort(tm.AbortConflict)
	panic("unreachable")
}

// tryExtend implements timestamp extension for the redo-log TM: if every
// prior read's orec still carries the exact version observed at read
// time, the buffered values are all current at the present clock, so the
// start time may advance instead of aborting on a too-new read. The
// comparison is exact because a version that merely stayed <= the new
// start could still have been republished by an intervening commit.
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

// Read returns the transaction's own buffered write if one exists,
// otherwise performs a validated read of committed memory. When
// re-executing for Retry it logs the committed value to the waitset even
// for read-after-write accesses, so that the waitset never contains
// speculative (out-of-thin-air) values.
func (e *Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	if tx.IsRetry {
		val, idx, ver := e.sampleRead(tx, addr, true)
		tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx, Ver: ver})
		tx.LogWait(addr, val)
		if buf, ok := tx.Redo.Get(addr); ok {
			return buf
		}
		return val
	}
	if buf, ok := tx.Redo.Get(addr); ok {
		return buf
	}
	val, idx, ver := e.sampleRead(tx, addr, true)
	tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx, Ver: ver})
	return val
}

// Write buffers the store in the redo log.
func (e *Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	tx.Redo.Put(addr, val, e.sys.Table.IndexOf(addr))
}

// Commit implements TL2-style two-phase commit: acquire the write set's
// orecs with CAS, take a commit timestamp, validate the read set (unless
// the clock proves exclusivity — the start+1 fast path), write back the
// redo log, and release the locks at the commit time. Read-only
// transactions commit for free.
func (e *Engine) Commit(tx *tm.Tx) {
	if tx.Redo.Len() == 0 {
		return
	}
	for i := range tx.Redo.Entries {
		idx := tx.Redo.Entries[i].Orec
		if e.holds(tx, idx) {
			continue
		}
		w := e.sys.Table.Get(idx)
		if locktable.Locked(w) || !e.sys.Table.CAS(idx, w, locktable.LockedBy(tx.Thr.ID, locktable.Version(w))) {
			tx.Abort(tm.AbortConflict)
		}
		tx.Locks = append(tx.Locks, idx)
		tx.NoteWriteStripe(idx)
	}
	end, exclusive := e.sys.Clock.Commit(tx.Start, 0)
	if !exclusive && !e.validateReads(tx) {
		tx.Abort(tm.AbortConflict)
	}
	// An online stripe resize since Begin invalidates the attempt's
	// write-stripe set; abort and re-execute against the new geometry.
	tx.RevalidateTableGen()
	for i := range tx.Redo.Entries {
		atomic.StoreUint64(tx.Redo.Entries[i].Addr, tx.Redo.Entries[i].Val)
	}
	tx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)
	for _, idx := range tx.Locks {
		e.sys.Table.Set(idx, locktable.UnlockedAt(end))
	}
	tx.Locks = tx.Locks[:0]
	if e.sys.Cfg.Quiesce {
		// The transaction is logically committed: retire its activity
		// before quiescing, or two committers would wait on each other.
		tx.Thr.ActiveStart.Store(0)
		e.sys.Quiesce(tx.Thr, end)
	}
}

func (e *Engine) holds(tx *tm.Tx, idx uint32) bool {
	for _, l := range tx.Locks {
		if l == idx {
			return true
		}
	}
	return false
}

// validateReads checks that every read is still unlocked at a version no
// newer than the start time, or locked by this transaction with its
// pre-acquisition version no newer than the start time.
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
func (e *Engine) Validate(tx *tm.Tx) bool { return e.validateReads(tx) }

// Rollback discards the redo log (memory was never touched before
// validation succeeded) and releases any commit-time locks with a bumped
// version so concurrent readers notice the ownership change. The clock
// bump precedes the release so that the republished versions are
// already covered by the clock when they become visible — a version
// ahead of the clock could be handed out again by a concurrent Commit,
// breaking the strict per-orec version increase that timestamp
// extension relies on.
//
//tm:rollback
func (e *Engine) Rollback(tx *tm.Tx) {
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

// AwaitSnapshot implements the Await re-read (Algorithm 6) for a lazy TM:
// speculative writes live only in the redo log, so the committed value of
// each address is read directly from memory — validated against the
// transaction's start time — and logged to the waitset.
func (e *Engine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	for _, addr := range addrs {
		// No extension here: the attempt is about to deschedule, and the
		// waitset must stay consistent with the start the reads used.
		val, _, _ := e.sampleRead(tx, addr, false)
		tx.LogWait(addr, val)
	}
}
