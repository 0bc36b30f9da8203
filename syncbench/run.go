package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tmsync"
	"tmsync/internal/tm"
)

// setupReps is how many times a run builds its workload. setup_s is the
// median; the last build is the one that runs.
const setupReps = 21

// samplerCap bounds the latency values one client keeps per window.
const samplerCap = 1 << 14

// runCtl paces one timed phase: a short warm-up, then nwin equal windows.
// Clients read win before every op; the calling goroutine only advances it.
type runCtl struct {
	win  atomic.Int32 // -1 warm-up, 0..nwin-1 measured window, nwin stop
	nwin int
}

type opStatus uint8

const (
	opOK     opStatus = iota
	opFailed          // the op's own self-check failed
	opEnd             // the peer's end marker arrived; not an op
)

// client holds one closed-loop goroutine's measurements. Only that
// goroutine writes it; the controller reads it after the goroutine ends.
type client struct {
	ops    []uint64   // ops completed, per window
	lat    []*sampler // op latency, per window
	wake   []*sampler // wake latency of ops that raised a wait, per window
	issued uint64     // every op, warm-up and drain included
	failed uint64
	// between, if set, runs before each op outside its timing.
	between func()

	wakeRing *stampRing // set by an op that raised a wait
	wakeSeq  uint64
	lostWake uint64 // waits whose condition-making stamp never arrived
}

func newClient(nwin int) *client {
	d := &client{ops: make([]uint64, nwin), lat: make([]*sampler, nwin), wake: make([]*sampler, nwin)}
	for w := range nwin {
		d.lat[w] = newSampler(samplerCap)
		d.wake[w] = newSampler(samplerCap / 4)
	}
	return d
}

// awaitWake records that the current op raised a wait that the commit
// stamped as seq in ring made true. The wake latency is taken once the op
// has returned.
func (d *client) awaitWake(ring *stampRing, seq uint64) {
	d.wakeRing, d.wakeSeq = ring, seq
}

// loop runs op in a closed loop until the controller stops, or — with
// untilEnd — until op reports its peer's end marker. th is the thread the
// ops run on (nil when the op runs its transactions on threads of its
// own), which the tracer uses to tie spans to the op.
func (r *runCtl) loop(d *client, th *tm.Thread, tr *tracer, untilEnd bool, op func() opStatus) {
	for {
		w := int(r.win.Load())
		if w >= r.nwin && !untilEnd {
			return
		}
		if d.between != nil {
			d.between()
		}
		var t0 int64
		if tr != nil {
			t0 = tr.beginOp(th)
		} else {
			t0 = now()
		}
		st := op()
		t1 := now()
		if tr != nil {
			tr.endOp(th, t0, t1)
		}
		if st == opEnd {
			return
		}
		d.issued++
		if st == opFailed {
			d.failed++
		}
		measured := w >= 0 && w < r.nwin
		if measured {
			d.ops[w]++
			d.lat[w].add(t1 - t0)
		}
		if ring := d.wakeRing; ring != nil {
			d.wakeRing = nil
			at, ok := ring.await(d.wakeSeq)
			switch {
			case !ok:
				d.lostWake++
			case measured:
				d.wake[w].add(t1 - at)
			}
		}
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	setupNs  []float64 // each build's duration
	winNs    []float64 // each window's length
	winCPU   []float64 // process CPU time spent in each window (ns)
	clients  []*client
	mallocs  uint64 // heap allocations during the windows
	maxRSS   int64
	checkErr error
	tr       *tracer
}

// runPhase builds w setupReps times, then runs the last build for seconds
// of measured windows. With tr set, every System is built with the
// tracer's wrappers installed.
func runPhase(w workload, seed uint64, seconds float64, tr *tracer) *phase {
	newSys := func() *tmsync.System {
		s := tmsync.New(w.engine, tmsync.Config{})
		if tr != nil {
			tr.install(s.System)
		}
		return s
	}
	ph := &phase{tr: tr}
	var inst instance
	for range setupReps {
		// Each build starts from a collected heap returned to the OS, as
		// in a fresh process: no build pays for a collection its
		// predecessors' garbage triggered, and none finds their pages
		// still mapped.
		debug.FreeOSMemory()
		t0 := now()
		inst = w.build(seed, newSys)
		ph.setupNs = append(ph.setupNs, float64(now()-t0))
	}

	nwin := max(4, int(seconds+0.5))
	win := time.Duration(seconds * float64(time.Second) / float64(nwin))
	warm := min(500*time.Millisecond, win)
	r := &runCtl{nwin: nwin}
	r.win.Store(-1)
	bodies := inst.clients()
	var wg sync.WaitGroup
	for _, body := range bodies {
		d := newClient(nwin)
		ph.clients = append(ph.clients, d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(r, d, tr)
		}()
	}
	time.Sleep(warm)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0, _ := usage()
	t0 := now()
	for i := range nwin {
		r.win.Store(int32(i))
		time.Sleep(win)
		t1 := now()
		cpu1, _ := usage()
		ph.winNs = append(ph.winNs, float64(t1-t0))
		ph.winCPU = append(ph.winCPU, float64(cpu1-cpu0))
		t0, cpu0 = t1, cpu1
	}
	r.win.Store(int32(nwin))
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs0
	wg.Wait()
	_, ph.maxRSS = usage()
	ph.checkErr = inst.check()
	lost := uint64(0)
	for _, d := range ph.clients {
		lost += d.lostWake
	}
	if ph.checkErr == nil && lost > 0 {
		ph.checkErr = fmt.Errorf("%s: %d waits never saw the commit that ended them stamped", w.name, lost)
	}
	return ph
}

// ops is the number of ops completed in the measured windows.
func (ph *phase) ops() uint64 {
	n := uint64(0)
	for _, d := range ph.clients {
		for _, o := range d.ops {
			n += o
		}
	}
	return n
}

func (ph *phase) issued() (issued, failed uint64) {
	for _, d := range ph.clients {
		issued += d.issued
		failed += d.failed
	}
	return issued, failed
}

// throughputs is each window's ops per second.
func (ph *phase) throughputs() []float64 {
	out := make([]float64, len(ph.winNs))
	for w := range out {
		n := uint64(0)
		for _, d := range ph.clients {
			n += d.ops[w]
		}
		out[w] = float64(n) / (ph.winNs[w] / 1e9)
	}
	return out
}

// cpuPerOp is each window's process CPU time per op, in microseconds.
func (ph *phase) cpuPerOp() []float64 {
	out := make([]float64, len(ph.winNs))
	for w := range out {
		n := uint64(0)
		for _, d := range ph.clients {
			n += d.ops[w]
		}
		out[w] = ratio(ph.winCPU[w]/1e3, float64(n))
	}
	return out
}

// windowPercentiles returns, for each window that has samples, the
// nearest-rank percentiles ps of that window's values pooled over every
// client; each client's kept values are weighted by the stride its
// sampler kept them at. kept and offered count the values over all
// windows.
func (ph *phase) windowPercentiles(pick func(*client) []*sampler, ps ...percentile) (perWin [][]float64, kept, offered uint64) {
	perWin = make([][]float64, len(ps))
	for w := range ph.winNs {
		var vals []weighted
		for _, d := range ph.clients {
			s := pick(d)[w]
			for _, v := range s.values() {
				vals = append(vals, weighted{v, s.stride})
			}
			kept += uint64(s.n)
			offered += s.count
		}
		if len(vals) == 0 {
			continue
		}
		sortWeighted(vals)
		for i, p := range ps {
			perWin[i] = append(perWin[i], float64(weightedRank(vals, p)))
		}
	}
	return perWin, kept, offered
}

// pooled returns every kept value of every window, weighted, sorted.
func (ph *phase) pooled(pick func(*client) []*sampler) []weighted {
	var vals []weighted
	for _, d := range ph.clients {
		for _, s := range pick(d) {
			for _, v := range s.values() {
				vals = append(vals, weighted{v, s.stride})
			}
		}
	}
	sortWeighted(vals)
	return vals
}
