// Fixture for the bumporder analyzer: in //tm:rollback functions, the
// Clock.Bump call must dominate every orec republish. The annotated
// local types stand in for the runtime's locktable.Table and
// clock.Source, which a single-package fixture cannot import.
package bumporder

//tm:orec-table
type table struct{ words [8]uint64 }

func (t *table) Get(i int) uint64    { return t.words[i] }
func (t *table) Set(i int, w uint64) { t.words[i] = w }

//tm:clock-source
type clock struct{ t uint64 }

func (c *clock) Bump() { c.t++ }

type tx struct {
	locks []int
	tab   *table
	clk   *clock
}

// rollbackGood bumps the clock before the release loop: the Bump
// dominates every Set, so the republished versions are already covered.
//
//tm:rollback
func (x *tx) rollbackGood() {
	if len(x.locks) == 0 {
		return
	}
	x.clk.Bump()
	for _, i := range x.locks {
		x.tab.Set(i, x.tab.Get(i)+2)
	}
	x.locks = x.locks[:0]
}

// rollbackLate releases first: the versions become visible before the
// clock covers them.
//
//tm:rollback
func (x *tx) rollbackLate() {
	for _, i := range x.locks {
		x.tab.Set(i, x.tab.Get(i)+2) // want `orec republish is not dominated by a Clock\.Bump call`
	}
	x.clk.Bump()
}

// rollbackDeferred defers the bump, which runs after the releases it was
// supposed to precede — a deferred Bump must not count as dominating.
//
//tm:rollback
func (x *tx) rollbackDeferred() {
	defer x.clk.Bump()
	for _, i := range x.locks {
		x.tab.Set(i, x.tab.Get(i)+2) // want `orec republish is not dominated by a Clock\.Bump call`
	}
}

// rollbackBranch bumps on only one branch; the republish is reachable
// without passing the Bump.
//
//tm:rollback
func (x *tx) rollbackBranch(fast bool) {
	if !fast {
		x.clk.Bump()
	}
	x.tab.Set(0, 3) // want `orec republish is not dominated by a Clock\.Bump call`
}

// Rollback is the backstop: a method literally named Rollback that
// republishes orecs must opt into the check explicitly.
func (x *tx) Rollback() { // want `method Rollback republishes orec versions but is not annotated //tm:rollback`
	x.clk.Bump()
	for _, i := range x.locks {
		x.tab.Set(i, x.tab.Get(i)+2)
	}
}

// republishHelper is recognized through its //tm:republish annotation
// rather than by being an orec Set.
//
//tm:republish
func (x *tx) republishHelper(i int) {
	x.tab.Set(i, x.tab.Get(i)+2)
}

// rollbackViaHelper republishes through the annotated helper without a
// preceding bump.
//
//tm:rollback
func (x *tx) rollbackViaHelper() {
	for _, i := range x.locks {
		x.republishHelper(i) // want `orec republish is not dominated by a Clock\.Bump call`
	}
}

// store writes an orec word without being an orec-table Set.
func (x *tx) store(i int, w uint64) { x.tab.words[i] = w }

// rollbackInlineRepublish marks an ordinary store as a republish with an
// inline directive at the call site, and does not bump first.
//
//tm:rollback
func (x *tx) rollbackInlineRepublish(w uint64) {
	//tm:republish
	x.store(0, w) // want `orec republish is not dominated by a Clock\.Bump call`
}

// notRollback uses the same calls outside a rollback context; the
// analyzer must not fire on ordinary publication code.
func (x *tx) notRollback() {
	x.tab.Set(0, 4)
	x.clk.Bump()
}
