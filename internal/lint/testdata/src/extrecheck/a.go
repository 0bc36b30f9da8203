// Fixture for the extrecheck analyzer: a value accepted after a
// successful timestamp extension must be guarded by BOTH a
// `ver <= tx.Start` recheck and an orec-word recheck. The annotated
// local types stand in for the runtime's locktable.Table and
// clock.Source.
package extrecheck

//tm:orec-table
type table struct{ words [8]uint64 }

func (t *table) Get(i int) uint64 { return t.words[i] }

//tm:clock-source
type clock struct{ t uint64 }

func (c *clock) Now() uint64 { c.t++; return c.t }

type tx struct {
	Start uint64
	clk   *clock
	tab   *table
}

//tm:noreturn
func (x *tx) abort() {
	panic("conflict")
}

//tm:extend
func (x *tx) tryExtend() bool {
	x.Start = x.clk.Now()
	return true
}

// readGood is the sound acceptance shape: extension success, then the
// start recheck, then the word recheck, all guarding the accept.
func readGood(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	ver := w >> 1
	val := ver + 100
	if ver <= x.Start {
		return val
	}
	if x.tryExtend() && ver <= x.Start && x.tab.Get(i) == w {
		return val
	}
	x.abort()
	panic("unreachable")
}

// readGoodFlipped spells the same rechecks with the operands and
// operators flipped; the analyzer must recognize every spelling.
func readGoodFlipped(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	ver := w >> 1
	val := ver + 100
	if x.tryExtend() {
		if ver > x.Start || w != x.tab.Get(i) {
			x.abort()
		}
		return val
	}
	x.abort()
	panic("unreachable")
}

// readNoStartRecheck validates only the orec word: the extended start
// may still predate the sampled version.
func readNoStartRecheck(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	val := (w >> 1) + 100
	if x.tryExtend() && x.tab.Get(i) == w { // want `value accepted after timestamp extension without a ver <= tx\.Start recheck`
		return val
	}
	x.abort()
	panic("unreachable")
}

// readNoWordRecheck validates only the start — the orec may have moved
// while the extension validated.
func readNoWordRecheck(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	ver := w >> 1
	val := ver + 100
	if x.tryExtend() && ver <= x.Start { // want `value accepted after timestamp extension without an orec-word recheck`
		return val
	}
	x.abort()
	panic("unreachable")
}

// readIgnoresResult drops the extension result on the floor; success
// must directly guard the accepts.
func readIgnoresResult(x *tx, i int) uint64 {
	_ = x.tryExtend() // want `timestamp-extension result is not branched on`
	return x.tab.Get(i) >> 1
}

// readEscape has both rechecks, but the counter update escapes the
// guards: it runs on extension success before either recheck passes.
func readEscape(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	ver := w >> 1
	val := ver + 100
	if x.tryExtend() {
		val++ // want `runs on extension success but is not guarded by the ver <= tx\.Start recheck` // want `runs on extension success but is not guarded by the orec-word recheck`
		if ver <= x.Start && x.tab.Get(i) == w {
			return val
		}
	}
	x.abort()
	panic("unreachable")
}

// noExtension never extends; plain validated reads are out of scope.
func noExtension(x *tx, i int) uint64 {
	w := x.tab.Get(i)
	if ver := w >> 1; ver <= x.Start {
		return ver
	}
	x.abort()
	panic("unreachable")
}
