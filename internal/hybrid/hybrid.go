// Package hybrid implements a Hybrid TM: best-effort hardware transactions
// that fall back to a concurrent lazy STM — not a global lock — after
// exhausting their retry budget. The paper argues (§2.2.6) that the
// Deschedule mechanism supports HyTM with no changes, because both modes
// coordinate through the same orec table and value-based waitsets; this
// engine demonstrates that claim.
//
// Design: hardware attempts behave exactly as in package htm (buffered
// writes, signature-based eager dooming, capacity limits, commit-time orec
// validation). Software attempts are TL2-style transactions that acquire
// orecs at commit, which hardware validation already observes — so the two
// modes serialize against each other with no global lock and no mode
// barrier. Escape actions (waitset logging, descheduling) are available in
// the software mode, so Retry/Await/WaitPred switch a hardware transaction
// to an STM re-execution rather than a serialized one.
package hybrid

import (
	"sync/atomic"

	"tmsync/internal/locktable"
	"tmsync/internal/tm"
)

// Engine is the hybrid back end. Construct with New.
type Engine struct {
	sys *tm.System
}

// New returns the engine factory expected by tm.NewSystem.
func New(sys *tm.System) tm.Engine { return &Engine{sys: sys} }

// Name implements tm.Engine.
func (e *Engine) Name() string { return "hybrid" }

// Begin chooses hardware or software mode: software when escape actions
// were requested (WantSoftware/IsRetry) or the hardware retry budget is
// exhausted; hardware otherwise. Unlike the pure-HTM engine there is no
// serialization — software transactions run concurrently.
func (e *Engine) Begin(tx *tm.Tx) {
	if tx.WantSoftware || tx.IsRetry || tx.Attempts > e.sys.Cfg.HTMMaxRetries || tx.SerialHeld {
		tx.WantSoftware = false
		tx.Mode = tm.ModeSTM
		tx.StampTableView()
		tx.Start = tx.Thr.PublishStartSerialAware(tx)
		return
	}
	t := tx.Thr
	for {
		// Hardware attempts must not start inside an irrevocable section,
		// and must stand down if one begins while they publish: the
		// section's drain loop waits for HWActive to clear.
		for e.sys.SerialActive.Load() != 0 {
			yield()
		}
		t.Doomed.Store(false)
		t.SigReset()
		t.HWActive.Store(true)
		if e.sys.SerialActive.Load() != 0 {
			t.HWActive.Store(false)
			continue
		}
		break
	}
	tx.Mode = tm.ModeHW
	tx.StampTableView()
	tx.Start = t.PublishStart()
}

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

// sampleRead performs the orec/value/orec consistent read shared by both
// modes. In software mode a too-new version tries timestamp extension
// (when enabled and the caller permits it) before aborting; hardware
// attempts never extend — their start is fixed for the signature-based
// conflict window.
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
		// means no intervening commit.
		if extend && tx.Mode != tm.ModeHW && e.sys.Cfg.TimestampExtension && e.tryExtend(tx) && v <= tx.Start && e.sys.Table.Get(idx) == w1 {
			return val, idx, v
		}
	}
	if tx.Mode == tm.ModeHW {
		tx.Thr.HWActive.Store(false)
	}
	tx.Abort(tm.AbortConflict)
	panic("unreachable")
}

// tryExtend implements timestamp extension for software attempts: if
// every prior read's orec still carries the exact version observed at
// read time, the snapshot is valid at the current clock, so the start
// time advances instead of aborting on a too-new read. The comparison
// is exact because a version that merely stayed <= the new start could
// still have been republished by an intervening commit.
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

// Read implements tm.Engine. Both modes buffer writes, so read-after-write
// consults the redo log; software mode additionally logs the waitset when
// re-executing for Retry.
func (e *Engine) Read(tx *tm.Tx, addr *uint64) uint64 {
	if tx.Mode == tm.ModeHW {
		e.checkHW(tx)
		if buf, ok := tx.Redo.Get(addr); ok {
			return buf
		}
		val, idx, ver := e.sampleRead(tx, addr, false)
		tx.Thr.SigAdd(idx)
		tx.Reads = append(tx.Reads, tm.ReadEntry{Addr: addr, Orec: idx, Ver: ver})
		tx.HWReads++
		if tx.HWReads > e.sys.Cfg.HTMReadCap {
			tx.Thr.HWActive.Store(false)
			tx.Abort(tm.AbortCapacity)
		}
		return val
	}
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

// Write implements tm.Engine.
func (e *Engine) Write(tx *tm.Tx, addr *uint64, val uint64) {
	idx := e.sys.Table.IndexOf(addr)
	if tx.Mode == tm.ModeHW {
		e.checkHW(tx)
		tx.Thr.SigAdd(idx)
		if _, dup := tx.Redo.Get(addr); !dup {
			tx.HWWrites++
			if tx.HWWrites > e.sys.Cfg.HTMWriteCap {
				tx.Thr.HWActive.Store(false)
				tx.Abort(tm.AbortCapacity)
			}
		}
	}
	tx.Redo.Put(addr, val, idx)
}

// Commit implements tm.Engine: the same two-phase orec commit in both
// modes (the shared orec protocol is what makes the hybrid coherent);
// hardware commits additionally doom overlapping hardware readers.
func (e *Engine) Commit(tx *tm.Tx) {
	hw := tx.Mode == tm.ModeHW
	t := tx.Thr
	if hw {
		e.checkHW(tx)
	}
	if tx.Redo.Len() == 0 {
		if hw {
			t.HWActive.Store(false)
		}
		return
	}
	for i := range tx.Redo.Entries {
		idx := tx.Redo.Entries[i].Orec
		if e.holds(tx, idx) {
			continue
		}
		w := e.sys.Table.Get(idx)
		if locktable.Locked(w) || !e.sys.Table.CAS(idx, w, locktable.LockedBy(t.ID, locktable.Version(w))) {
			if hw {
				t.HWActive.Store(false)
			}
			tx.Abort(tm.AbortConflict)
		}
		tx.Locks = append(tx.Locks, idx)
		tx.NoteWriteStripe(idx)
	}
	end, exclusive := e.sys.Clock.Commit(tx.Start, 0)
	if !exclusive && !e.validateReads(tx) {
		if hw {
			t.HWActive.Store(false)
		}
		tx.Abort(tm.AbortConflict)
	}
	// An online stripe resize since Begin invalidates the attempt's
	// write-stripe set; abort (Rollback clears HWActive) and re-execute
	// against the new geometry — the same rule in both modes.
	tx.RevalidateTableGen()
	// Doom concurrent hardware transactions whose signatures overlap the
	// write set — software committers must do this too, or hardware
	// readers would miss eager invalidation from the software path.
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
	tx.WriteOrecs = append(tx.WriteOrecs, tx.Locks...)
	for _, idx := range tx.Locks {
		e.sys.Table.Set(idx, locktable.UnlockedAt(end))
	}
	tx.Locks = tx.Locks[:0]
	if hw {
		t.HWActive.Store(false)
	} else if e.sys.Cfg.Quiesce {
		t.ActiveStart.Store(0)
		e.sys.Quiesce(t, end)
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

// Rollback implements tm.Engine: both modes buffer writes, so rollback is
// lock release only.
//
//tm:rollback
func (e *Engine) Rollback(tx *tm.Tx) {
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

// AwaitSnapshot implements tm.Engine: hardware transactions must restart
// in software mode first (core.Await arranges that); in software mode the
// committed values are read directly, as in the lazy STM.
func (e *Engine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	if tx.Mode == tm.ModeHW {
		panic("hybrid: AwaitSnapshot requires software mode")
	}
	for _, addr := range addrs {
		// No extension here: the attempt is about to deschedule, and the
		// waitset must stay consistent with the start the reads used.
		val, _, _ := e.sampleRead(tx, addr, false)
		tx.LogWait(addr, val)
	}
}
