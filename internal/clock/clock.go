// Package clock provides the logical commit clock used by the STM
// engines, in the style of TL2 and TinySTM: a monotonically increasing
// counter that orders writer commits and stamps orec versions.
//
// The protocol is TL2's global version clock. Every writer commit, and
// every rollback that republishes lock versions, atomically increments
// one shared word. Timestamps are therefore unique, and a committer
// whose increment yields exactly start+1 knows nobody committed since
// its snapshot and may skip read-set validation.
//
// Invariants:
//
//   - Per-orec versions strictly increase across lock cycles. A commit
//     stamp strictly exceeds the clock value before the increment, which
//     already covers every version the committer locked. Rollback
//     republishes at the locked version + 1, after Bump has advanced the
//     clock past it. The engines' timestamp extension relies on this: an
//     orec word unchanged since a consistent sample proves no commit
//     intervened.
//
//   - Every published version is covered by the clock by the time it
//     becomes visible: commit stamps by construction, rollback
//     republishes because Bump runs before the release. A version v is
//     therefore readable without abort once Now() >= v, and no
//     concurrent committer can ever reuse a republished version.
package clock

import "sync/atomic"

// Mode names a commit-timestamp protocol. Global is the only one.
type Mode string

// Global is the TL2/TinySTM protocol: one atomic increment of the shared
// clock word per writer commit. Unique timestamps.
const Global Mode = "global"

// Source is a logical commit-timestamp source. Implementations are
// safe for concurrent use; the zero time is 0.
//
//tm:clock-source
type Source interface {
	// Now returns the current logical time. Transactions snapshot it
	// at begin.
	Now() uint64

	// Commit returns the timestamp a writer that began at start must
	// publish its orec versions at. held is the highest version among
	// the orecs the writer locked (0 when untracked); end always
	// strictly exceeds it. The global clock ignores held: end exceeds
	// the pre-increment clock, which already covers every published
	// version. exclusive reports that no other writer can have taken a
	// timestamp in (start, end], which licenses the TL2 fast path of
	// skipping read-set validation.
	Commit(start, held uint64) (end uint64, exclusive bool)

	// Bump advances time past versions republished outside a normal
	// commit: rollback's version+1 lock release and the HTM serial
	// fallback's unversioned stores. The engines call it BEFORE
	// releasing rollback locks, so a republished version is covered by
	// the clock by the time it becomes visible — a concurrent committer
	// can then never reuse it.
	Bump()

	// NoteStale records that a transaction observed orec version v
	// ahead of its snapshot. The global clock ignores it: it already
	// reached v when v was published.
	NoteStale(v uint64)

	// AtLeast advances the clock to at least t.
	AtLeast(t uint64)

	// Mode identifies the protocol.
	Mode() Mode
}

// New builds the global clock. advances counts successful advances of
// the shared word; nil discards the count. tm.System wires it to
// Stats.ClockAdvances.
func New(advances *atomic.Uint64) Source {
	if advances == nil {
		advances = &atomic.Uint64{}
	}
	return &global{advances: advances}
}

// word isolates the hot shared clock word on its own cache line so the
// counter (and anything the runtime allocates adjacently) never false-
// shares with it.
//
//tm:padded
type word struct {
	now atomic.Uint64
	_   [56]byte
}

// global is the classic TL2 clock: Commit = fetch-and-add.
type global struct {
	w        word
	advances *atomic.Uint64 // successful advances of the shared word
}

func (g *global) Mode() Mode  { return Global }
func (g *global) Now() uint64 { return g.w.now.Load() }

// Commit ignores held: the fetch-and-add yields a value strictly above
// the pre-add clock, which covers every published version — including
// the ones this committer locked (rollback Bumps before republishing,
// so even abort-released versions never run ahead of the clock).
func (g *global) Commit(start, _ uint64) (uint64, bool) {
	end := g.w.now.Add(1)
	g.advances.Add(1)
	// Timestamps are unique, so end == start+1 proves no other writer
	// committed since this transaction's snapshot.
	return end, end == start+1
}

func (g *global) Bump() {
	g.w.now.Add(1)
	g.advances.Add(1)
}

func (g *global) NoteStale(uint64) {}

// AtLeast CAS-advances the clock to at least t, counting the advance
// only when this call moved it.
func (g *global) AtLeast(t uint64) {
	for {
		cur := g.w.now.Load()
		if cur >= t {
			return
		}
		if g.w.now.CompareAndSwap(cur, t) {
			g.advances.Add(1)
			return
		}
	}
}
