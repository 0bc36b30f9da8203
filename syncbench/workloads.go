package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"tmsync"
	"tmsync/internal/buffer"
	"tmsync/internal/mech"
	"tmsync/internal/parsecsim"
	"tmsync/internal/tm"
)

// A workload is one closed-loop experiment. build is its set-up: it makes
// the System(s) through newSys (which installs the tracer in traced runs),
// the threads and the data structures, and returns the ready instance.
type workload struct {
	name   string
	engine tmsync.EngineKind
	// spansPerOp is about how many spans one sampled op records; it sizes
	// the traced half's sampling period (sampleEvery).
	spansPerOp int
	build      func(seed uint64, newSys func() *tmsync.System) instance
}

// An instance is a built workload, ready to run once.
type instance interface {
	// clients lists the closed-loop goroutines' bodies. Each runs until
	// the controller stops it (and its peer's end marker, where it has one).
	clients() []func(r *runCtl, d *client, tr *tracer)
	// check verifies the end state after every client has returned.
	check() error
}

var workloads = []workload{
	{name: "handoff", engine: tmsync.Eager, spansPerOp: 22, build: buildHandoff},
	{name: "batchwait", engine: tmsync.Lazy, spansPerOp: 10, build: buildBatchwait},
	{name: "disjoint", engine: tmsync.Eager, spansPerOp: 8, build: buildDisjoint},
	{name: "barrier", engine: tmsync.Hybrid, spansPerOp: 2700, build: buildBarrier},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want handoff, batchwait, disjoint or barrier)", name)
}

// padded is one transactional word alone on a 128-byte block (two cache
// lines, so the adjacent-line prefetcher cannot couple neighbours either).
type padded struct {
	v uint64
	_ [120]byte
}

// ---- handoff: Figure 2.3's bounded buffer, Retry on full/empty ----

const handoffCap = 4

type handoff struct {
	buf          *buffer.TMBuffer
	putAt, getAt stampRing // commit stamps of each Put / Get, by sequence number
	prod         *handoffProducer
	cons         *handoffConsumer
}

type handoffProducer struct {
	h      *handoff
	th     *tm.Thread
	base   uint64
	seq    uint64 // sequence number of the item being put
	waited bool
	body   func(*tm.Tx)
	stamp  func()
}

type handoffConsumer struct {
	h        *handoff
	th       *tm.Thread
	base     uint64
	next     uint64 // sequence number expected next
	got      uint64
	waited   bool
	disorder uint64 // items that arrived out of order, lost or duplicated
	body     func(*tm.Tx)
	stamp    func()
}

// handoffEnd is the end-of-stream item; real items are base+seq with
// base >= 1, so they never collide with it.
const handoffEnd = 0

func buildHandoff(seed uint64, newSys func() *tmsync.System) instance {
	sys := newSys()
	h := &handoff{buf: buffer.NewTM(handoffCap)}
	base := 1 + rand.New(rand.NewPCG(seed, 0x68616e64)).Uint64()>>8
	p := &handoffProducer{h: h, th: sys.NewThread(), base: base}
	c := &handoffConsumer{h: h, th: sys.NewThread(), base: base}
	p.body = func(tx *tm.Tx) {
		if h.buf.Full(tx) {
			p.waited = true
			tmsync.Retry(tx)
		}
		h.buf.Put(tx, p.base+p.seq)
		tx.OnCommit = append(tx.OnCommit, p.stamp)
	}
	p.stamp = func() { h.putAt.put(p.seq, now()) }
	c.body = func(tx *tm.Tx) {
		if h.buf.Empty(tx) {
			c.waited = true
			tmsync.Retry(tx)
		}
		c.got = h.buf.Get(tx)
		tx.OnCommit = append(tx.OnCommit, c.stamp)
	}
	c.stamp = func() {
		if c.got != handoffEnd {
			h.getAt.put(c.got-c.base, now())
		}
	}
	h.prod, h.cons = p, c
	return h
}

func (h *handoff) clients() []func(*runCtl, *client, *tracer) {
	return []func(*runCtl, *client, *tracer){h.prod.run, h.cons.run}
}

func (p *handoffProducer) run(r *runCtl, d *client, tr *tracer) {
	r.loop(d, p.th, tr, false, func() opStatus {
		p.waited = false
		p.th.Atomic(p.body)
		if p.waited && p.seq >= handoffCap {
			// The buffer held items seq-cap .. seq-1: the Get of the
			// oldest one made room.
			d.awaitWake(&p.h.getAt, p.seq-handoffCap)
		}
		p.seq++
		return opOK
	})
	p.th.Atomic(func(tx *tm.Tx) {
		if p.h.buf.Full(tx) {
			tmsync.Retry(tx)
		}
		p.h.buf.Put(tx, handoffEnd)
	})
}

func (c *handoffConsumer) run(r *runCtl, d *client, tr *tracer) {
	r.loop(d, c.th, tr, true, func() opStatus {
		c.waited = false
		c.th.Atomic(c.body)
		if c.got == handoffEnd {
			return opEnd
		}
		if c.got != c.base+c.next {
			c.disorder++
			c.next = c.got - c.base + 1
			return opFailed
		}
		if c.waited {
			// The consumer saw the buffer empty, so the Put of this very
			// item made its condition true.
			d.awaitWake(&c.h.putAt, c.next)
		}
		c.next++
		return opOK
	})
}

func (h *handoff) check() error {
	p, c := h.prod, h.cons
	left := uint64(0)
	p.th.Atomic(func(tx *tm.Tx) { left = h.buf.Count(tx) })
	switch {
	case c.disorder != 0:
		return fmt.Errorf("handoff: %d items arrived out of FIFO order, lost or duplicated", c.disorder)
	case c.next != p.seq:
		return fmt.Errorf("handoff: produced %d items, consumed %d", p.seq, c.next)
	case left != 0:
		return fmt.Errorf("handoff: %d items left in the buffer after the end marker", left)
	}
	return nil
}

// ---- batchwait: WaitPred until a counter reaches a batch ----

const batchSize = 64

type batchwait struct {
	cnt, done *padded
	crossAt   stampRing // commit stamps of each 63→64 crossing, by crossing number
	pred      tmsync.Pred
	prod      *batchProducer
	cons      *batchConsumer
}

type batchProducer struct {
	b         *batchwait
	th        *tm.Thread
	produced  uint64
	crossings uint64
	val       uint64
	body      func(*tm.Tx)
	stamp     func()
}

type batchConsumer struct {
	b        *batchwait
	th       *tm.Thread
	consumed uint64
	left     uint64 // counter value right after the previous claim
	expect   uint64 // number of the crossing the current claim waits for
	v, take  uint64
	waited   bool
	body     func(*tm.Tx)
}

func buildBatchwait(_ uint64, newSys func() *tmsync.System) instance {
	sys := newSys()
	b := &batchwait{cnt: new(padded), done: new(padded)}
	b.pred = func(tx *tm.Tx, _ []uint64) bool {
		return tx.Read(&b.cnt.v) >= batchSize || tx.Read(&b.done.v) != 0
	}
	p := &batchProducer{b: b, th: sys.NewThread()}
	c := &batchConsumer{b: b, th: sys.NewThread()}
	p.body = func(tx *tm.Tx) {
		p.val = tx.Read(&b.cnt.v) + 1
		tx.Write(&b.cnt.v, p.val)
		if p.val == batchSize {
			tx.OnCommit = append(tx.OnCommit, p.stamp)
		}
	}
	p.stamp = func() {
		p.crossings++
		b.crossAt.put(p.crossings, now())
	}
	c.body = func(tx *tm.Tx) {
		c.v = tx.Read(&b.cnt.v)
		c.take = batchSize
		if c.v < batchSize {
			if tx.Read(&b.done.v) == 0 {
				c.waited = true
				tmsync.WaitPred(tx, b.pred)
			}
			c.take = c.v
		}
		tx.Write(&b.cnt.v, c.v-c.take)
	}
	b.prod, b.cons = p, c
	return b
}

func (b *batchwait) clients() []func(*runCtl, *client, *tracer) {
	return []func(*runCtl, *client, *tracer){b.prod.run, b.cons.run}
}

func (p *batchProducer) run(r *runCtl, d *client, tr *tracer) {
	r.loop(d, p.th, tr, false, func() opStatus {
		p.th.Atomic(p.body)
		p.produced++
		return opOK
	})
	p.th.Atomic(func(tx *tm.Tx) { tx.Write(&p.b.done.v, 1) })
}

func (c *batchConsumer) run(r *runCtl, d *client, tr *tracer) {
	r.loop(d, c.th, tr, true, func() opStatus {
		if c.left < batchSize {
			c.expect++ // this claim needs the counter to cross 63→64 again
		}
		c.waited = false
		c.th.Atomic(c.body)
		c.consumed += c.take
		c.left = c.v - c.take
		if c.take < batchSize {
			// Only the end of the stream may leave a short batch.
			return opEnd
		}
		if c.waited {
			d.awaitWake(&c.b.crossAt, c.expect)
		}
		return opOK
	})
}

func (b *batchwait) check() error {
	final := uint64(0)
	b.prod.th.Atomic(func(tx *tm.Tx) { final = tx.Read(&b.cnt.v) })
	switch {
	case b.prod.produced != b.cons.consumed:
		return fmt.Errorf("batchwait: produced %d, consumed %d", b.prod.produced, b.cons.consumed)
	case final != 0:
		return fmt.Errorf("batchwait: counter ends at %d, want 0", final)
	}
	return nil
}

// ---- disjoint: private padded words, 4 read-only : 1 read-modify-write ----

const (
	// disjointWords is each worker's private word count. The orec and
	// waiter-stripe a word maps to depend on its address, so a worker with
	// a handful of words would run on one random draw of orec and stripe
	// sharing with its peer — and that draw changes from process to
	// process. Spreading each op over seeded picks among many words
	// measures the average placement instead.
	disjointWords = 256
	disjointReads = 4    // words one read-only transaction reads
	disjointSched = 1000 // ops per schedule period: 800 read-only, 200 writes
)

// disjointOp is one scheduled op: write >= 0 increments word write;
// write < 0 reads the words in reads.
type disjointOp struct {
	write int16
	reads [disjointReads]uint16
}

type disjoint struct{ ws [2]*disjointWorker }

type disjointWorker struct {
	th    *tm.Thread
	words []padded
	local []uint64 // writer commits issued on each word
	sched []disjointOp
	i     int
	cur   *disjointOp
	vals  [disjointReads]uint64
	old   uint64
	ro    func(*tm.Tx)
	rmw   func(*tm.Tx)
}

func buildDisjoint(seed uint64, newSys func() *tmsync.System) instance {
	sys := newSys()
	d := &disjoint{}
	for k := range d.ws {
		w := &disjointWorker{th: sys.NewThread(), words: make([]padded, disjointWords), local: make([]uint64, disjointWords)}
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		w.sched = make([]disjointOp, disjointSched)
		for i := range w.sched {
			op := &w.sched[i]
			op.write = -1
			if i%5 == 0 {
				op.write = int16(rng.IntN(disjointWords))
			}
			for j := range op.reads {
				op.reads[j] = uint16(rng.IntN(disjointWords))
			}
		}
		rng.Shuffle(len(w.sched), func(a, b int) { w.sched[a], w.sched[b] = w.sched[b], w.sched[a] })
		w.ro = func(tx *tm.Tx) {
			for j, i := range w.cur.reads {
				w.vals[j] = tx.Read(&w.words[i].v)
			}
		}
		w.rmw = func(tx *tm.Tx) {
			a := &w.words[w.cur.write].v
			w.old = tx.Read(a)
			tx.Write(a, w.old+1)
		}
		d.ws[k] = w
	}
	return d
}

func (d *disjoint) clients() []func(*runCtl, *client, *tracer) {
	return []func(*runCtl, *client, *tracer){d.ws[0].run, d.ws[1].run}
}

func (w *disjointWorker) run(r *runCtl, d *client, tr *tracer) {
	r.loop(d, w.th, tr, false, func() opStatus {
		w.cur = &w.sched[w.i]
		if w.i++; w.i == len(w.sched) {
			w.i = 0
		}
		if w.cur.write < 0 {
			w.th.Atomic(w.ro)
			for j, i := range w.cur.reads {
				if w.vals[j] != w.local[i] {
					return opFailed
				}
			}
			return opOK
		}
		w.th.Atomic(w.rmw)
		ok := w.old == w.local[w.cur.write]
		w.local[w.cur.write]++
		if !ok {
			return opFailed
		}
		return opOK
	})
}

func (d *disjoint) check() error {
	for k, w := range d.ws {
		for i := range w.words {
			if got := w.words[i].v; got != w.local[i] {
				return fmt.Errorf("disjoint: worker %d word %d holds %d, want %d writer commits", k, i, got, w.local[i])
			}
		}
	}
	return nil
}

// ---- barrier: the streamcluster skeleton on the hybrid engine with Await ----

const (
	barrierScale = 2
	// barrierRecycle bounds the runs one System serves. Every skeleton run
	// registers two threads for good (a System's thread registry never
	// shrinks, and each writer commit's Quiesce walks it), so a long run on
	// one System would slow down as it goes and eventually exhaust the
	// thread-id space. The System is replaced between ops, outside the
	// op's timing.
	barrierRecycle = 32
)

type barrier struct {
	bench  *parsecsim.Benchmark
	ref    uint64
	kit    parsecsim.Kit
	newSys func() *tmsync.System
	runs   uint64
	bad    uint64
}

func buildBarrier(_ uint64, newSys func() *tmsync.System) instance {
	bench, err := parsecsim.ByName("streamcluster")
	if err != nil {
		panic(err) // the skeleton is part of this module; a missing one is a build defect
	}
	b := &barrier{bench: bench, newSys: newSys}
	b.kit = parsecsim.Kit{Mech: mech.Await, Sys: newSys().System}
	b.ref = bench.Reference(barrierScale)
	return b
}

func (b *barrier) clients() []func(*runCtl, *client, *tracer) {
	return []func(*runCtl, *client, *tracer){b.run}
}

func (b *barrier) run(r *runCtl, d *client, tr *tracer) {
	d.between = func() {
		if b.runs > 0 && b.runs%barrierRecycle == 0 {
			b.kit.Sys = b.newSys().System
		}
	}
	r.loop(d, nil, tr, false, func() opStatus {
		b.runs++
		if b.bench.Run(&b.kit, 2, barrierScale) != b.ref {
			b.bad++
			return opFailed
		}
		return opOK
	})
}

func (b *barrier) check() error {
	if b.bad != 0 {
		return fmt.Errorf("barrier: %d of %d runs returned a checksum other than the reference %#x", b.bad, b.runs, b.ref)
	}
	return nil
}

// stampRing holds commit timestamps by sequence number, written by a
// committing transaction's OnCommit callback and read by the thread whose
// wait that commit ended. Its slots bound how far the writer may run
// ahead of the reader; every workload's writer stays within a handful.
const stampSlots = 1024

type stampRing struct {
	slots [stampSlots]struct {
		tag atomic.Uint64
		at  atomic.Int64
	}
}

func (s *stampRing) put(seq uint64, at int64) {
	sl := &s.slots[seq%stampSlots]
	sl.at.Store(at)
	sl.tag.Store(seq + 1)
}

// await returns the stamp of seq, spinning until its OnCommit callback has
// stored it: the waiter can return from Atomic before the committer runs
// its callbacks. ok is false if no stamp arrives within a second.
func (s *stampRing) await(seq uint64) (at int64, ok bool) {
	sl := &s.slots[seq%stampSlots]
	deadline := now() + 1e9
	for i := 0; sl.tag.Load() != seq+1; i++ {
		if i%1024 == 1023 && now() > deadline {
			return 0, false
		}
		runtime.Gosched()
	}
	return sl.at.Load(), true
}
