package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"tmsync/internal/clock"
	"tmsync/internal/tm"
)

// The traced run measures each layer from outside, through the seams
// tm.System already exposes: a forwarding tm.Engine and clock.Source, a
// PostCommit hook chained to core's, a Tracer, and the WakeLatency hook.
// All of them are installed after tmsync.New and before any NewThread.

// kind names a span's layer boundary.
type kind uint8

const (
	kOp         kind = iota // one op, around the workload's call
	kAttempt                // Engine.Begin to the end of Commit or Rollback
	kBegin                  // engine.begin
	kRead                   // engine.read
	kWrite                  // engine.write
	kCommit                 // engine.commit (orec locks, writeback, Quiesce)
	kRollback               // engine.rollback
	kAwait                  // engine.await_snapshot
	kPostCommit             // core.postcommit
	kBlock                  // core.block: TraceBlock to TraceWake
	kSleep                  // sem.sleep: parked on the semaphore
	nKinds
)

var kindNames = [nKinds]string{
	"op", "attempt", "engine.begin", "engine.read", "engine.write", "engine.commit",
	"engine.rollback", "engine.await_snapshot", "core.postcommit", "core.block", "sem.sleep",
}

// span is one recorded interval. own and op identify the op it belongs
// to: own is the thread that issued the op (0 for an op that runs its
// transactions on threads of its own), op that issuer's op number. thr is
// the thread the span ran on.
type span struct {
	start, end int64
	op         uint32
	thr, own   uint16
	kind       kind
}

// Per-thread counters, kept for every call whether or not its op is
// sampled.
const (
	cBegin = iota
	cRead
	cWrite
	cCommit
	cCommitAbort
	cRollback
	cAwait
	cPostCommit
	cBlock
	cWake
	cFutile
	nCounters
)

// maxThreads bounds the tm thread ids the tracer follows; barrier's
// recycled Systems stay far below it.
const maxThreads = 256

// spanMargin is the room a sampled op must find left in the span buffer;
// it exceeds the spans of any one op of any workload.
const spanMargin = 1 << 16

type tracer struct {
	every uint64 // sample one op in every
	spans []span
	next  atomic.Int64
	lost  atomic.Int64 // spans dropped for want of room

	threads [maxThreads]*tstate
	// gop is the op in progress on threads no client loop owns (the
	// barrier skeleton's workers): op<<1 | sampled.
	gop  atomic.Uint64
	gseq uint64

	sleeps  []interval
	nsleeps atomic.Int64
	clock   clockStripes
	systems []*tm.System
}

func newTracer(every uint64, spanCap, sleepCap int) *tracer {
	return &tracer{every: every, spans: make([]span, spanCap), sleeps: make([]interval, sleepCap)}
}

// tstate is one tm thread's tracing state. Only the goroutine running
// that thread touches it while the phase runs.
type tstate struct {
	tr      *tracer
	id, own uint16
	op      uint32
	seq     uint64 // ops issued (client threads)
	gop     uint64 // last gop seen (other threads)
	sampled bool
	client  bool // a client loop issues this thread's ops (beginOp)
	woke    bool // a TraceWake has happened since the thread last committed
	stack   [8]struct {
		k     kind
		start int64
	}
	depth int
	n     [nCounters]uint64
}

func (tr *tracer) thread(t *tm.Thread) *tstate {
	if t.ID >= maxThreads {
		panic(fmt.Sprintf("syncbench: thread id %d exceeds the tracer's %d slots", t.ID, maxThreads))
	}
	ts := tr.threads[t.ID]
	if ts == nil {
		ts = &tstate{tr: tr, id: uint16(t.ID)}
		tr.threads[t.ID] = ts
	}
	return ts
}

func (tr *tracer) room() bool { return tr.next.Load() < int64(len(tr.spans)-spanMargin) }

// beginOp starts an op issued on th (nil: the op runs its transactions on
// threads of its own) and returns its start time.
func (tr *tracer) beginOp(th *tm.Thread) int64 {
	if th == nil {
		tr.gseq++
		g := tr.gseq << 1
		if tr.gseq%tr.every == 0 && tr.room() {
			g |= 1
		}
		tr.gop.Store(g)
		return now()
	}
	ts := tr.thread(th)
	ts.client, ts.own = true, ts.id
	ts.seq++
	ts.op = uint32(ts.seq)
	ts.sampled = ts.seq%tr.every == 0 && tr.room()
	ts.woke, ts.depth = false, 0
	return now()
}

func (tr *tracer) endOp(th *tm.Thread, t0, t1 int64) {
	if th == nil {
		g := tr.gop.Load()
		if g&1 == 1 {
			tr.emit(span{start: t0, end: t1, op: uint32(g >> 1), kind: kOp})
		}
		tr.gop.Store(g &^ 1)
		return
	}
	ts := tr.thread(th)
	if ts.sampled {
		ts.emit(kOp, t0, t1)
		ts.sampled = false
	}
}

// syncOp adopts the current global op on a thread no client loop owns.
// Every op's events on such a thread start with an Engine.Begin.
func (ts *tstate) syncOp() {
	if ts.client {
		return
	}
	if g := ts.tr.gop.Load(); g != ts.gop {
		ts.gop, ts.own = g, 0
		ts.op, ts.sampled = uint32(g>>1), g&1 == 1
		ts.woke, ts.depth = false, 0
	}
}

func (tr *tracer) emit(s span) {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.lost.Add(1)
		return
	}
	tr.spans[i] = s
}

func (ts *tstate) emit(k kind, start, end int64) {
	ts.tr.emit(span{start: start, end: end, op: ts.op, thr: ts.id, own: ts.own, kind: k})
}

// closeCall ends a call-scoped span that began at start (deferred, so a
// call that aborts by panicking still records its span).
func (ts *tstate) closeCall(k kind, start int64) { ts.emit(k, start, now()) }

func (ts *tstate) push(k kind, start int64) {
	if ts.depth < len(ts.stack) {
		ts.stack[ts.depth].k, ts.stack[ts.depth].start = k, start
	}
	ts.depth++
}

func (ts *tstate) pop(k kind, end int64) {
	if ts.depth == 0 {
		return
	}
	ts.depth--
	if ts.depth < len(ts.stack) && ts.stack[ts.depth].k == k {
		ts.emit(k, ts.stack[ts.depth].start, end)
	}
}

// install wraps sys's seams. Call it after tmsync.New, before NewThread.
func (tr *tracer) install(sys *tm.System) {
	tr.systems = append(tr.systems, sys)
	sys.Engine = &tracedEngine{inner: sys.Engine, tr: tr}
	sys.Clock = &tracedClock{inner: sys.Clock, st: &tr.clock, every: tr.every}
	sys.Tracer = &tracedEvents{inner: sys.Tracer, tr: tr}
	post := sys.PostCommit
	sys.PostCommit = func(t *tm.Thread, gen uint64, writeOrecs, writeStripes []uint32) {
		ts := tr.thread(t)
		ts.n[cPostCommit]++
		if ts.sampled {
			defer ts.closeCall(kPostCommit, now())
		}
		if post != nil {
			post(t, gen, writeOrecs, writeStripes)
		}
	}
	wake := sys.WakeLatency
	sys.WakeLatency = func(d time.Duration) {
		end := now()
		if i := tr.nsleeps.Add(1) - 1; i < int64(len(tr.sleeps)) {
			tr.sleeps[i] = interval{end - int64(d), end}
		}
		if wake != nil {
			wake(d)
		}
	}
}

// tracedEngine forwards to the System's engine, timing sampled calls.
type tracedEngine struct {
	inner tm.Engine
	tr    *tracer
}

func (e *tracedEngine) Name() string            { return e.inner.Name() }
func (e *tracedEngine) Validate(tx *tm.Tx) bool { return e.inner.Validate(tx) }
func (e *tracedEngine) ts(tx *tm.Tx) *tstate    { return e.tr.thread(tx.Thr) }

func (e *tracedEngine) Begin(tx *tm.Tx) {
	ts := e.ts(tx)
	ts.syncOp()
	ts.n[cBegin]++
	if !ts.sampled {
		e.inner.Begin(tx)
		return
	}
	t0 := now()
	ts.push(kAttempt, t0)
	defer ts.closeCall(kBegin, t0)
	e.inner.Begin(tx)
}

func (e *tracedEngine) Read(tx *tm.Tx, addr *uint64) uint64 {
	ts := e.ts(tx)
	ts.n[cRead]++
	if ts.sampled {
		defer ts.closeCall(kRead, now())
	}
	return e.inner.Read(tx, addr)
}

func (e *tracedEngine) Write(tx *tm.Tx, addr *uint64, v uint64) {
	ts := e.ts(tx)
	ts.n[cWrite]++
	if ts.sampled {
		defer ts.closeCall(kWrite, now())
	}
	e.inner.Write(tx, addr, v)
}

func (e *tracedEngine) Commit(tx *tm.Tx) {
	ts := e.ts(tx)
	ts.n[cCommit]++
	sampled, ok := ts.sampled, false
	var t0 int64
	if sampled {
		t0 = now()
	}
	defer func() {
		if ok {
			ts.woke = false // the Atomic call, or its nested double-check, is over
		} else {
			ts.n[cCommitAbort]++
		}
		if sampled {
			t1 := now()
			ts.emit(kCommit, t0, t1)
			if ok {
				ts.pop(kAttempt, t1)
			}
		}
	}()
	e.inner.Commit(tx)
	ok = true
}

func (e *tracedEngine) Rollback(tx *tm.Tx) {
	ts := e.ts(tx)
	ts.n[cRollback]++
	if !ts.sampled {
		e.inner.Rollback(tx)
		return
	}
	t0 := now()
	e.inner.Rollback(tx)
	t1 := now()
	ts.emit(kRollback, t0, t1)
	ts.pop(kAttempt, t1)
}

func (e *tracedEngine) AwaitSnapshot(tx *tm.Tx, addrs []*uint64) {
	ts := e.ts(tx)
	ts.n[cAwait]++
	if ts.sampled {
		defer ts.closeCall(kAwait, now())
	}
	e.inner.AwaitSnapshot(tx, addrs)
}

// tracedEvents follows tm's block/wake events: a block span per
// TraceBlock→TraceWake, and a futile wakeup per TraceWake followed by
// another TraceBlock before the thread commits again (within one Atomic
// call: the woken transaction found its condition still false).
type tracedEvents struct {
	inner tm.Tracer
	tr    *tracer
}

func (x *tracedEvents) TraceEvent(t *tm.Thread, k tm.TraceKind, arg uint64) {
	ts := x.tr.thread(t)
	switch k {
	case tm.TraceBlock:
		ts.n[cBlock]++
		if ts.woke {
			ts.n[cFutile]++
		}
		if ts.sampled {
			ts.push(kBlock, now())
		}
	case tm.TraceWake:
		ts.n[cWake]++
		ts.woke = true
		if ts.sampled {
			ts.pop(kBlock, now())
		}
	}
	if x.inner != nil {
		x.inner.TraceEvent(t, k, arg)
	}
}

// Clock calls carry no thread, so the clock wrapper keeps counts and
// sampled Commit timings only. A single shared counter would add a
// contended cache line to every transaction, so the counts are striped by
// the calling goroutine's stack address: each goroutine's stack is its own
// allocation, so concurrent callers land on different stripes.
const (
	clockStripeN   = 64
	clockSampleCap = 1024
)

type clockStripe struct {
	calls   atomic.Uint64
	commits atomic.Uint64
	n       atomic.Int64
	ns      [clockSampleCap]uint32
	_       [64]byte
}

type clockStripes [clockStripeN]clockStripe

func (c *clockStripes) mine() *clockStripe {
	var probe byte
	return &c[(uintptr(unsafe.Pointer(&probe))>>13)%clockStripeN]
}

type tracedClock struct {
	inner clock.Source
	st    *clockStripes
	every uint64
}

func (c *tracedClock) Now() uint64 {
	c.st.mine().calls.Add(1)
	return c.inner.Now()
}

func (c *tracedClock) Commit(start, held uint64) (uint64, bool) {
	s := c.st.mine()
	s.calls.Add(1)
	if s.commits.Add(1)%c.every != 0 {
		return c.inner.Commit(start, held)
	}
	t0 := now()
	end, exclusive := c.inner.Commit(start, held)
	d := now() - t0
	if i := s.n.Add(1) - 1; i < clockSampleCap {
		s.ns[i] = clampU32(d)
	}
	return end, exclusive
}

func (c *tracedClock) Bump() {
	c.st.mine().calls.Add(1)
	c.inner.Bump()
}

func (c *tracedClock) NoteStale(v uint64) {
	c.st.mine().calls.Add(1)
	c.inner.NoteStale(v)
}

func (c *tracedClock) AtLeast(t uint64) {
	c.st.mine().calls.Add(1)
	c.inner.AtLeast(t)
}

func (c *tracedClock) Mode() clock.Mode { return c.inner.Mode() }

// ---- analysis ----

// traceResult is what a traced phase's spans and counters add up to.
type traceResult struct {
	durations  [nKinds][]int64 // span lengths by kind, over complete ops
	opSelf     []int64         // each sampled op's self time
	opTotal    int64           // summed length of the sampled ops
	postTotal  int64           // summed core.postcommit time inside them
	ops        int             // sampled ops analysed
	violations int             // (op, thread) pairs whose self times exceed the op
	spans      []span
	self       []int64 // self time of spans[i]
}

// analyze attributes sem sleeps to the block spans that contain them,
// groups spans by op, and computes every span's self time.
func (tr *tracer) analyze() *traceResult {
	spans := slices.Clone(tr.spans[:min(tr.next.Load(), int64(len(tr.spans)))])
	sleeps := slices.Clone(tr.sleeps[:min(tr.nsleeps.Load(), int64(len(tr.sleeps)))])
	slices.SortFunc(sleeps, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	for _, b := range spans {
		if b.kind != kBlock {
			continue
		}
		i, _ := slices.BinarySearchFunc(sleeps, b.start, func(s interval, t int64) int { return cmp.Compare(s.start, t) })
		for ; i < len(sleeps) && sleeps[i].start < b.end; i++ {
			if sleeps[i].end <= b.end {
				spans = append(spans, span{start: sleeps[i].start, end: sleeps[i].end, op: b.op, thr: b.thr, own: b.own, kind: kSleep})
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.own, b.own), cmp.Compare(a.op, b.op), cmp.Compare(a.thr, b.thr),
			cmp.Compare(a.start, b.start), cmp.Compare(b.end, a.end), cmp.Compare(a.kind, b.kind))
	})
	res := &traceResult{spans: spans, self: make([]int64, len(spans))}
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].own == spans[lo].own && spans[hi].op == spans[lo].op {
			hi++
		}
		res.addOp(lo, hi)
		lo = hi
	}
	return res
}

// addOp analyses the spans [lo, hi) of one op. The op span is the root;
// on each thread, a span's parent is the innermost span of that thread
// containing it, or the op span. Ops without an op span (cut off at the
// phase's edges) are skipped.
func (res *traceResult) addOp(lo, hi int) {
	spans := res.spans
	root := -1
	for i := lo; i < hi; i++ {
		if spans[i].kind == kOp {
			root = i
			break
		}
	}
	if root < 0 {
		return
	}
	children := make(map[int][]interval)
	var stack []int
	prevThr := -1
	for i := lo; i < hi; i++ {
		if i == root {
			continue
		}
		s := spans[i]
		if int(s.thr) != prevThr {
			stack, prevThr = stack[:0], int(s.thr)
		}
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if s.start >= top.start && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent := root
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		children[parent] = append(children[parent], interval{s.start, s.end})
		stack = append(stack, i)
	}
	perThread := make(map[uint16]int64)
	for i := lo; i < hi; i++ {
		s := spans[i]
		res.self[i] = selfTime(interval{s.start, s.end}, children[i])
		if i != root {
			perThread[s.thr] += res.self[i]
			res.durations[s.kind] = append(res.durations[s.kind], s.end-s.start)
		}
		if s.kind == kPostCommit {
			res.postTotal += s.end - s.start
		}
	}
	op := spans[root]
	for _, sum := range perThread {
		if res.self[root]+sum > op.end-op.start {
			res.violations++
		}
	}
	res.ops++
	res.opSelf = append(res.opSelf, res.self[root])
	res.opTotal += op.end - op.start
}

// writeSpans writes every analysed span with its self time as TSV.
func (res *traceResult) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "own\top\tthread\tspan\tstart_ns\tend_ns\tself_ns")
	for i, s := range res.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.own, s.op, s.thr, kindNames[s.kind], s.start, s.end, res.self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters sums every thread's counters.
func (tr *tracer) counters() [nCounters]uint64 {
	var n [nCounters]uint64
	for _, ts := range tr.threads {
		if ts == nil {
			continue
		}
		for i, v := range ts.n {
			n[i] += v
		}
	}
	return n
}

// stats sums the tm.Stats of every System the tracer was installed on.
func (tr *tracer) stats() map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range tr.systems {
		for k, v := range s.Stats.Snapshot() {
			out[k] += v
		}
	}
	return out
}

// clockCalls and clockCommitNs total the clock wrapper's stripes.
func (tr *tracer) clockCalls() (calls uint64, commitNs []int64) {
	for i := range tr.clock {
		s := &tr.clock[i]
		calls += s.calls.Load()
		for _, v := range s.ns[:min(s.n.Load(), clockSampleCap)] {
			commitNs = append(commitNs, int64(v))
		}
	}
	return calls, commitNs
}
