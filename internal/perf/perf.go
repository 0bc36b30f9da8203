// Package perf is the seeded benchmark pipeline behind the BENCH_PR*.json
// reports: a sweep that runs every TM engine × condition-
// synchronization mechanism over the repository's workloads (the
// lane-partitioned bounded buffer and the eight PARSEC concurrency
// skeletons) across a ladder of goroutine counts, from a fixed seed, plus
// the rows of an experiment table (see experiments.go), each a set of
// cells and a verdict pinning one claim. One machine-readable report per
// invocation is the performance trajectory later changes diff against:
// throughput, abort rate, wakeup-scan work per commit, and
// sleep-to-signal wake latency.
//
// Every run also self-checks: PARSEC checksums are diffed against the
// sequential reference, and the experiment-only workloads check token
// conservation, so a benchmark that silently computes the wrong thing
// fails instead of reporting a meaningless number.
package perf

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"tmsync/internal/buffer"
	"tmsync/internal/core"
	"tmsync/internal/harness"
	"tmsync/internal/locktable"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/parsecsim"
	"tmsync/internal/tm"
)

// Schema identifies the report layout; bump on incompatible change.
const Schema = "tmsync-bench/2"

// Options parameterizes one sweep. Zero values select defaults.
type Options struct {
	// Seed feeds the produced value streams; recorded in the report so a
	// run can be reproduced exactly.
	Seed uint64
	// Threads is the main sweep's goroutine-count ladder (default 1, 2,
	// 4, 8). Experiments carry their own ladders.
	Threads []int
	// Engines restricts the engine axis (default: all four).
	Engines []string
	// Mechs restricts the main sweep's mechanism axis (default: all TM
	// mechanisms; the Pthreads baseline is always measured once per
	// workload cell).
	Mechs []mech.Mechanism
	// Workloads restricts the main sweep's workload axis (default:
	// Workloads()); without "buffer", experiments skip their buffer cells.
	Workloads []string
	// BufferOps is the number of operations each bounded-buffer worker
	// performs (default 2000).
	BufferOps int
	// BufferCap is the per-lane buffer capacity (default 4; small, so
	// workers block often and condition synchronization is exercised).
	BufferCap int
	// Scale is the PARSEC workload scale (default 2).
	Scale int
	// Trials repeats every cell (default 1); each trial is one point.
	Trials int
	// SweepStripes is the static stripe-count axis of the experiments
	// (default {1, 64}: the global table versus the sharded one).
	SweepStripes []int
	// Baseline includes the Pthreads lock+condvar baseline per workload.
	Baseline bool
	// Experiments names the experiment-table rows to run beside the main
	// sweep (see ExperimentNames; nil runs none).
	Experiments []string
	// Quick runs the experiments' workloads at reduced operation counts
	// (CI and smoke runs).
	Quick bool
	// LatencyMaxDelay is the Config.CoalesceMaxDelay the latency
	// experiment's cells run with and its verdict bounds (default 25ms).
	LatencyMaxDelay time.Duration
	// Prior is the previous report that prior-baseline checks compare
	// against (nil: those checks hold vacuously).
	Prior *Report

	// Progress, when set, receives one call per completed point.
	Progress func(done, total int, p Point)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	if len(o.Engines) == 0 {
		o.Engines = harness.Engines
	}
	if len(o.Mechs) == 0 {
		o.Mechs = mech.TM
	}
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads()
	}
	if o.BufferOps == 0 {
		o.BufferOps = 2000
	}
	if o.BufferCap == 0 {
		o.BufferCap = 4
	}
	if o.Scale == 0 {
		o.Scale = 2
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	if len(o.SweepStripes) == 0 {
		o.SweepStripes = []int{1, 64}
	}
	if o.LatencyMaxDelay == 0 {
		o.LatencyMaxDelay = 25 * time.Millisecond
	}
	return o
}

// Workloads lists every workload name: the bounded buffer plus the eight
// PARSEC skeletons.
func Workloads() []string {
	out := []string{"buffer"}
	for i := range parsecsim.Benchmarks {
		out = append(out, "parsec/"+parsecsim.Benchmarks[i].Name)
	}
	return out
}

// Point is one measured run of a cell: workload × engine × mechanism ×
// goroutine count × knobs.
type Point struct {
	// Experiment names the experiment-table row the point belongs to (""
	// for the main sweep).
	Experiment string `json:"experiment,omitempty"`
	Workload   string `json:"workload"`
	Engine     string `json:"engine"` // "none" for the Pthreads baseline
	Mech       string `json:"mech"`
	Threads    int    `json:"threads"`
	// Stripes is the orec-table stripe count (0 = engine default).
	Stripes int `json:"stripes,omitempty"`
	// Unbatched marks a point measured with signal-at-claim wakeup
	// delivery instead of the per-commit signal batch (the A/B baseline
	// of the retry-orig experiment).
	Unbatched bool `json:"unbatched,omitempty"`
	// Adaptive marks a point measured with the online stripe controller
	// enabled; Stripes is then the (deliberately wrong) starting count.
	Adaptive bool `json:"adaptive,omitempty"`
	// FinalStripes is the stripe count the table ended the run at (only
	// interesting for adaptive points; the controller should have
	// converged away from the starting count).
	FinalStripes int `json:"final_stripes,omitempty"`
	// Resizes counts online stripe-geometry swaps during the run.
	Resizes uint64 `json:"resizes,omitempty"`
	// GenAborts counts commit-time aborts caused by a resize landing
	// mid-transaction — the per-transaction cost of the epoch swap.
	GenAborts uint64 `json:"gen_aborts,omitempty"`
	// Coalesce is the Config.CoalesceCommits value the point ran with
	// (0 = scan after every commit, the baseline).
	Coalesce int `json:"coalesce,omitempty"`
	Trial    int `json:"trial"`

	Seconds float64 `json:"seconds"`
	// Ops counts application-level operations where the workload defines
	// them (bounded buffer: puts+gets); 0 for checksum workloads.
	Ops uint64 `json:"ops,omitempty"`
	// Throughput is Ops/Seconds when Ops is known (buffer); for checksum
	// workloads it is workload runs per second (inverse wall time), which
	// stays comparable across engines, mechanisms, and the Pthreads
	// baseline.
	Throughput float64 `json:"throughput_per_sec"`

	Commits     uint64  `json:"commits"`
	ROCommits   uint64  `json:"ro_commits"`
	Aborts      uint64  `json:"aborts"`
	AbortRate   float64 `json:"abort_rate"`
	Deschedules uint64  `json:"deschedules"`
	// Wakeups counts semaphore wakeups delivered to sleeping waiters.
	Wakeups uint64 `json:"wakeups"`
	// WakeChecks counts sleeping waiters visited by post-commit wakeup
	// scans — the O(waiters)-versus-O(write set) scan work the stripe
	// index eliminates.
	WakeChecks uint64 `json:"wake_checks"`
	// WakeupsPerCommit is WakeChecks per writer commit: the wakeup-scan
	// cost a committing writer pays.
	WakeupsPerCommit float64 `json:"wakeups_per_commit"`
	// SignalsPerCommit is delivered wakeups per writer commit.
	SignalsPerCommit float64 `json:"signals_per_commit"`
	// BatchedSignals counts signals issued through the per-commit batch
	// (zero for unbatched points).
	BatchedSignals uint64 `json:"batched_signals,omitempty"`
	// OrigShardChecks counts Retry-Orig registry entries examined by
	// post-commit origWake scans — the work the sharded registry shrinks.
	OrigShardChecks uint64 `json:"orig_shard_checks,omitempty"`
	// OrigChecksPerCommit is OrigShardChecks per writer commit.
	OrigChecksPerCommit float64 `json:"orig_checks_per_commit,omitempty"`
	// CoalescedScans counts writer commits whose wake scan remained
	// deferred past the commit itself (coalesce points only): the ratio
	// to Commits is the fraction of scans coalescing removed.
	CoalescedScans uint64 `json:"coalesced_scans,omitempty"`
	// FlushK/FlushBlock/FlushAbort/FlushRead/FlushTeardown break pending-
	// buffer flushes down by trigger, exposing the effective flush
	// interval a cell actually ran at (coalesce points only).
	FlushK        uint64 `json:"flush_k,omitempty"`
	FlushBlock    uint64 `json:"flush_block,omitempty"`
	FlushAbort    uint64 `json:"flush_abort,omitempty"`
	FlushRead     uint64 `json:"flush_read,omitempty"`
	FlushAge      uint64 `json:"flush_age,omitempty"`
	FlushTeardown uint64 `json:"flush_teardown,omitempty"`
	// ClockAdvances counts successful writes to the shared clock word;
	// ClockOpsPerCommit is that count per writer commit — the cost every
	// commit pays on the one cache line all committers share.
	ClockAdvances     uint64  `json:"clock_advances,omitempty"`
	ClockOpsPerCommit float64 `json:"clock_ops_per_commit,omitempty"`
	// MaxDelayNs is the Config.CoalesceMaxDelay the point ran with
	// (latency cells only).
	MaxDelayNs int64 `json:"max_delay_ns,omitempty"`
	// WakeSleeps counts the semaphore sleeps the cell timed;
	// WakeLatencyP50Ns/P99Ns/MaxNs are nearest-rank quantiles of the
	// sleep-to-signal latency across them (latency cells only).
	WakeSleeps       uint64 `json:"wake_sleeps,omitempty"`
	WakeLatencyP50Ns int64  `json:"wake_latency_p50_ns,omitempty"`
	WakeLatencyP99Ns int64  `json:"wake_latency_p99_ns,omitempty"`
	WakeLatencyMaxNs int64  `json:"wake_latency_max_ns,omitempty"`
	// Checksum is the workload checksum (PARSEC kernels), verified
	// against the sequential reference before the point is recorded.
	Checksum uint64 `json:"checksum,omitempty"`
}

// Report is the machine-readable result of one sweep (BENCH_PR<N>.json).
type Report struct {
	Schema       string   `json:"schema"`
	Generated    string   `json:"generated"`
	Seed         uint64   `json:"seed"`
	Threads      []int    `json:"threads"`
	Engines      []string `json:"engines"`
	Mechs        []string `json:"mechs"`
	Workloads    []string `json:"workloads"`
	BufferOps    int      `json:"buffer_ops"`
	BufferCap    int      `json:"buffer_cap"`
	Scale        int      `json:"scale"`
	SweepStripes []int    `json:"sweep_stripes"`
	Experiments  []string `json:"experiments,omitempty"`
	Quick        bool     `json:"quick,omitempty"`
	// Points holds the main sweep (Experiment "") and every experiment's
	// cells, tagged with the experiment's name.
	Points   []Point   `json:"points"`
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// runTimed executes one cell's measured section and returns its elapsed
// wall time in seconds. All cell timing goes through this single helper,
// now itself built on internal/mono's monotonic capture, so a wall-clock
// step (NTP adjustment, suspend/resume) during a cell cannot corrupt the
// rates a committed BENCH report carries. Before it existed, four
// scaffolds hand-rolled their own start/elapsed pairs.
func runTimed(fn func()) float64 {
	return mono.Timed(fn).Seconds()
}

// cell is one measured configuration; each of its reps × Options.Trials
// runs is one point.
type cell struct {
	exp      string // "" for the main sweep
	workload string
	engine   string
	m        mech.Mechanism
	threads  int
	knobs    harness.Knobs
	reps     int
	ops      int // experiment-only workloads' size (see cellSpec)
}

// point returns the cell's identifying fields for one run.
func (c cell) point(trial int) Point {
	return Point{
		Experiment: c.exp, Workload: c.workload, Engine: c.engine, Mech: string(c.m), Threads: c.threads,
		Stripes: c.knobs.Stripes, Unbatched: c.knobs.Unbatched, Adaptive: c.knobs.MaxStripes > 0,
		Coalesce: c.knobs.CoalesceCommits, MaxDelayNs: int64(c.knobs.CoalesceMaxDelay), Trial: trial,
	}
}

// Run executes the main sweep and the selected experiments, then judges
// the experiments. It fails fast on any workload self-check failure (a
// PARSEC checksum deviating from the sequential reference, or lost
// tokens in an experiment workload).
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	for _, s := range o.SweepStripes {
		if s <= 0 || s&(s-1) != 0 || s > locktable.DefaultSize {
			return nil, fmt.Errorf("perf: stripe count %d must be a power of two in [1, %d]", s, locktable.DefaultSize)
		}
	}
	for _, w := range o.Workloads {
		switch {
		case w == "buffer":
		case strings.HasPrefix(w, "parsec/"):
			if _, err := parsecsim.ByName(strings.TrimPrefix(w, "parsec/")); err != nil {
				return nil, fmt.Errorf("perf: %w", err)
			}
		default:
			return nil, fmt.Errorf("perf: unknown workload %q (have %s)", w, strings.Join(Workloads(), ", "))
		}
	}
	exps, err := o.selected()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema:       Schema,
		Generated:    time.Now().UTC().Format(time.RFC3339), //tm:wallclock — report timestamp, not a measurement
		Seed:         o.Seed,
		Threads:      o.Threads,
		Engines:      o.Engines,
		Workloads:    o.Workloads,
		BufferOps:    o.BufferOps,
		BufferCap:    o.BufferCap,
		Scale:        o.Scale,
		SweepStripes: o.SweepStripes,
		Quick:        o.Quick,
	}
	for _, m := range o.Mechs {
		rep.Mechs = append(rep.Mechs, string(m))
	}

	var cells []cell
	for _, w := range o.Workloads {
		for _, threads := range o.Threads {
			if !validThreads(w, threads) {
				continue
			}
			if o.Baseline {
				cells = append(cells, cell{workload: w, engine: "none", m: mech.Pthreads, threads: threads})
			}
			for _, e := range o.Engines {
				for _, m := range o.Mechs {
					if m != mech.Pthreads && slices.Contains(mech.ForEngine(e), m) {
						cells = append(cells, cell{workload: w, engine: e, m: m, threads: threads})
					}
				}
			}
		}
	}
	for _, x := range exps {
		rep.Experiments = append(rep.Experiments, x.name)
		for _, threads := range x.threads {
			for _, spec := range x.cells {
				if spec.workload == "buffer" && !slices.Contains(o.Workloads, "buffer") {
					continue
				}
				ops := spec.ops
				if o.Quick {
					ops = spec.quickOps
				}
				for _, k := range spec.knobs {
					for _, e := range o.Engines {
						for _, m := range spec.mechs {
							if slices.Contains(mech.ForEngine(e), m) {
								cells = append(cells, cell{exp: x.name, workload: spec.workload, engine: e, m: m, threads: threads, knobs: k, reps: spec.reps, ops: ops})
							}
						}
					}
				}
			}
		}
	}

	total := 0
	for _, c := range cells {
		total += max(c.reps, 1) * o.Trials
	}
	done := 0
	for _, c := range cells {
		for trial := 0; trial < max(c.reps, 1)*o.Trials; trial++ {
			p, err := runCell(c, trial, o)
			if err != nil {
				return nil, fmt.Errorf("perf: %s %s/%s t=%d: %w", c.workload, c.engine, c.m, c.threads, err)
			}
			rep.Points = append(rep.Points, p)
			done++
			if o.Progress != nil {
				o.Progress(done, total, p)
			}
		}
	}
	for _, x := range exps {
		rep.Verdicts = append(rep.Verdicts, x.judge(rep, o.Prior))
	}
	return rep, nil
}

// runOrigRing measures the Retry-Orig contention workload: a ring of
// `threads` workers, each consuming tokens from its own slot and
// producing into its successor's, sleeping via RetryOrig when its slot is
// empty. Tokens seed every threads/4-th slot, so several hand-off chains
// run concurrently and at any moment most workers sleep in the registry.
// Each attempt also reads a window of neighbouring slots, spreading the
// sleeper's orec set over several registry shards and making unrelated
// hand-offs wake it futilely — the storm the sharded registry localizes.
// Token conservation is the workload's self-check.
func runOrigRing(c cell, trial int) (Point, error) {
	p := c.point(trial)
	k := c.knobs
	sys, err := harness.NewSystemKnobs(c.engine, k)
	if err != nil {
		return Point{}, err
	}
	n := c.threads
	window := min(origWindow, n)
	// Pick ring slots on pairwise-distinct orecs — and, when the table has
	// enough stripes, pairwise-distinct stripes. Where a slot lands in the
	// orec table is a function of its heap address, so without this
	// normalization the measured scan cost would be hostage to allocator
	// luck (two slots hashing into one stripe makes every hand-off commit
	// scan both neighbourhoods); with it, the cell measures the structure
	// the sweep is about. Adaptive cells normalize against the geometry
	// the controller is expected to converge to (the upper bound), so
	// their converged layout matches the best static cell's.
	geomStripes := sys.Table.NumStripes()
	if k.MaxStripes > geomStripes {
		geomStripes = k.MaxStripes
	}
	nv := sys.Table.ViewAt(geomStripes)
	backing := make([]uint64, 4096)
	slots := make([]*uint64, 0, n)
	distinctStripes := nv.NumStripes() >= n
	usedOrec := make(map[uint32]bool)
	usedStripe := make(map[uint32]bool)
	for i := range backing {
		idx := sys.Table.IndexOf(&backing[i])
		if usedOrec[idx] {
			continue
		}
		if distinctStripes && usedStripe[nv.StripeOf(idx)] {
			continue
		}
		usedOrec[idx] = true
		usedStripe[nv.StripeOf(idx)] = true
		slots = append(slots, &backing[i])
		if len(slots) == n {
			break
		}
	}
	if len(slots) < n {
		return Point{}, fmt.Errorf("origring: found only %d of %d distinct-orec ring slots", len(slots), n)
	}
	tokens := uint64(0)
	for i := 0; i < n; i += max(1, n/4) {
		*slots[i] = 1
		tokens++
	}
	var wg sync.WaitGroup
	secs := runTimed(func() {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				thr := sys.NewThread()
				defer thr.Detach()
				next := (i + 1) % n
				for pass := 0; pass < c.ops; pass++ {
					thr.Atomic(func(tx *tm.Tx) {
						v := tx.Read(slots[i])
						for j := 1; j < window; j++ {
							_ = tx.Read(slots[(i+j)%n])
						}
						if v == 0 {
							core.RetryOrig(tx)
						}
						tx.Write(slots[i], v-1)
						tx.Write(slots[next], tx.Read(slots[next])+1)
					})
				}
			}(i)
		}
		wg.Wait()
	})
	var left uint64
	for _, s := range slots {
		left += *s
	}
	if left != tokens {
		return Point{}, fmt.Errorf("origring: %d tokens left in the ring, want %d (lost or duplicated wakeup)", left, tokens)
	}
	p.Ops = uint64(n) * uint64(c.ops)
	fill(&p, sys, secs)
	return p, nil
}

func validThreads(workload string, threads int) bool {
	if !strings.HasPrefix(workload, "parsec/") {
		return true
	}
	b, err := parsecsim.ByName(strings.TrimPrefix(workload, "parsec/"))
	if err != nil {
		return false
	}
	return b.ValidThreads(threads)
}

func runCell(c cell, trial int, o Options) (Point, error) {
	switch {
	case c.workload == "buffer":
		return runBuffer(c, trial, o)
	case c.workload == "origring":
		return runOrigRing(c, trial)
	case c.workload == "tightloop":
		return runTightloop(c, trial)
	case c.workload == "tightloop/idle":
		return runTightloopIdle(c, trial)
	case strings.HasPrefix(c.workload, "parsec/"):
		return runParsec(c, trial, o)
	}
	return Point{}, fmt.Errorf("unknown workload %q", c.workload)
}

// fill finalizes a point from the (possibly nil, for Pthreads) system's
// counters. Throughput is defined here and only here: ops/second when
// the workload counts operations, otherwise workload runs per second
// (inverse wall time) — the one metric comparable across engines,
// mechanisms, and the Pthreads baseline (which has no commit counters).
func fill(p *Point, sys *tm.System, secs float64) {
	p.Seconds = secs
	if secs > 0 {
		if p.Ops > 0 {
			p.Throughput = float64(p.Ops) / secs
		} else {
			p.Throughput = 1 / secs
		}
	}
	if sys == nil {
		return
	}
	s := &sys.Stats
	p.Commits = s.Commits.Load()
	p.ROCommits = s.ROCommits.Load()
	p.Aborts = s.Aborts.Load()
	p.AbortRate = s.AbortRate()
	p.Deschedules = s.Deschedules.Load()
	p.Wakeups = s.Wakeups.Load()
	p.WakeChecks = s.WakeChecks.Load()
	p.BatchedSignals = s.BatchedSignals.Load()
	p.OrigShardChecks = s.OrigShardChecks.Load()
	p.GenAborts = s.GenAborts.Load()
	p.CoalescedScans = s.CoalescedScans.Load()
	p.ClockAdvances = s.ClockAdvances.Load()
	p.FlushK = s.FlushReasonK.Load()
	p.FlushBlock = s.FlushReasonBlock.Load()
	p.FlushAbort = s.FlushReasonAbort.Load()
	p.FlushRead = s.FlushReasonRead.Load()
	p.FlushAge = s.FlushReasonAge.Load()
	p.FlushTeardown = s.FlushReasonTeardown.Load()
	if p.Resizes = s.StripeResizes.Load(); p.Resizes > 0 {
		p.FinalStripes = sys.Table.NumStripes()
	}
	if p.Commits > 0 {
		p.WakeupsPerCommit = float64(p.WakeChecks) / float64(p.Commits)
		p.SignalsPerCommit = float64(p.Wakeups) / float64(p.Commits)
		p.OrigChecksPerCommit = float64(p.OrigShardChecks) / float64(p.Commits)
		p.ClockOpsPerCommit = float64(p.ClockAdvances) / float64(p.Commits)
	}
}

// runBuffer measures the lane-partitioned bounded buffer: goroutine pairs
// (one producer, one consumer) each own an independent small buffer, so
// at higher thread counts the workload contains genuinely disjoint
// producer/consumer systems — the structure whose post-commit wakeups the
// stripe index localizes. A lone goroutine alternates put/get and never
// blocks; an odd straggler alternates on lane 0.
func runBuffer(c cell, trial int, o Options) (Point, error) {
	p := c.point(trial)
	m, threads := c.m, c.threads
	ops := o.BufferOps
	lanes := threads / 2
	if lanes < 1 {
		lanes = 1
	}

	if m == mech.Pthreads {
		bufs := make([]*buffer.LockBuffer, lanes)
		for i := range bufs {
			bufs[i] = buffer.NewLock(o.BufferCap)
		}
		var wg sync.WaitGroup
		secs := runTimed(func() {
			forBufferWorkers(threads, lanes, &wg, func(worker, lane int, produce, consume bool) {
				b := bufs[lane]
				for i := 0; i < ops; i++ {
					if produce {
						b.Put(o.Seed + uint64(worker)<<32 + uint64(i))
					}
					if consume {
						b.Get()
					}
				}
			})
			wg.Wait()
		})
		p.Ops = bufferOpsTotal(threads, lanes, ops)
		fill(&p, nil, secs)
		return p, nil
	}

	sys, err := harness.NewSystemKnobs(c.engine, c.knobs)
	if err != nil {
		return Point{}, err
	}
	bufs := make([]*buffer.TMBuffer, lanes)
	for i := range bufs {
		bufs[i] = buffer.NewTM(o.BufferCap)
	}
	var wg sync.WaitGroup
	secs := runTimed(func() {
		forBufferWorkers(threads, lanes, &wg, func(worker, lane int, produce, consume bool) {
			thr := sys.NewThread()
			defer thr.Detach()
			b := bufs[lane]
			for i := 0; i < ops; i++ {
				if produce {
					b.PutMech(thr, m, o.Seed+uint64(worker)<<32+uint64(i))
				}
				if consume {
					b.GetMech(thr, m)
				}
			}
		})
		wg.Wait()
	})
	p.Ops = bufferOpsTotal(threads, lanes, ops)
	fill(&p, sys, secs)
	return p, nil
}

// runTightloop measures the tight-loop producer workload of the coalesce
// experiment: per lane, a producer commits back-to-back increments of the
// lane's counter — it never blocks, so nothing but the coalescing bounds
// ever interrupts its commit stream — while a consumer sleeps in WaitPred
// until a full batch has accumulated and then claims it. WaitPred waiters
// live on the unindexed list that every writer commit scans, so at
// CoalesceCommits = 0 each producer commit pays one wake check per
// sleeping consumer; coalescing divides that by the flush interval. The
// consumer's own commits exercise the block-bound flush. Self-check:
// every produced unit is consumed (all counters end at zero).
func runTightloop(c cell, trial int) (Point, error) {
	p := c.point(trial)
	if c.threads < 2 {
		return Point{}, fmt.Errorf("tightloop: need at least 2 threads (have %d)", c.threads)
	}
	sys, err := harness.NewSystemKnobs(c.engine, c.knobs)
	if err != nil {
		return Point{}, err
	}
	lanes := c.threads / 2
	batch := uint64(tightloopBatch)
	ops := uint64(c.ops)
	if r := ops % batch; r != 0 {
		ops += batch - r // consumers claim whole batches
	}
	counts := make([]uint64, lanes)
	var wg sync.WaitGroup
	secs := runTimed(func() {
		for lane := 0; lane < lanes; lane++ {
			wg.Add(2)
			count := &counts[lane]
			go func() { // producer: the tight loop
				defer wg.Done()
				thr := sys.NewThread()
				defer thr.Detach()
				for i := uint64(0); i < ops; i++ {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Write(count, tx.Read(count)+1)
					})
				}
			}()
			go func() { // consumer: asleep most of the time
				defer wg.Done()
				thr := sys.NewThread()
				defer thr.Detach()
				full := func(tx *tm.Tx, _ []uint64) bool { return tx.Read(count) >= batch }
				for consumed := uint64(0); consumed < ops; consumed += batch {
					thr.Atomic(func(tx *tm.Tx) {
						c := tx.Read(count)
						if c < batch {
							core.WaitPred(tx, full)
						}
						tx.Write(count, c-batch)
					})
				}
			}()
		}
		wg.Wait()
	})
	for lane, c := range counts {
		if c != 0 {
			return Point{}, fmt.Errorf("tightloop: lane %d ends with %d unconsumed units (lost or duplicated wakeup)", lane, c)
		}
	}
	p.Ops = 2 * ops * uint64(lanes)
	fill(&p, sys, secs)
	return p, nil
}

// latencyRecorder collects sleep-to-signal durations through the system's
// WakeLatency hook. Mutex-guarded: consumers on every lane record
// concurrently.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []int64
}

func (r *latencyRecorder) record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, int64(d))
	r.mu.Unlock()
}

// stats returns the sample count and nearest-rank p50/p99/max quantiles.
func (r *latencyRecorder) stats() (n uint64, p50, p99, max int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]int64(nil), r.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) int64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return uint64(len(s)), rank(0.50), rank(0.99), s[len(s)-1]
}

// runTightloopIdle measures one wake-latency cell: the tight-loop pair,
// restructured so the producer goes idle with its wake scan still pending
// — the exact shape of the stranding bug the age bound fixes. Per round,
// the producer commits latencyBurst-1 increments (the consumer reads the
// partial count and sleeps in WaitPred), pauses a moment so the consumer
// is asleep, commits the final increment that makes the predicate true —
// the scan is deferred, CoalesceCommits being four bursts deep — and then
// blocks on a plain Go channel. No attempt-triggered flush bound can fire
// while it idles there (and it must not poll the count transactionally:
// that would trip the read-back flush and measure the wrong mechanism),
// so only the CoalesceMaxDelay backstop can wake the consumer; the timed
// sleep-to-signal latency is the age bound's enforcement latency plus
// scheduling slack. Self-check: every produced unit is consumed.
func runTightloopIdle(c cell, trial int) (Point, error) {
	p := c.point(trial)
	if c.threads < 2 {
		return Point{}, fmt.Errorf("tightloop/idle: need at least 2 threads (have %d)", c.threads)
	}
	if c.knobs.CoalesceMaxDelay <= 0 || c.knobs.CoalesceCommits <= latencyBurst {
		return Point{}, fmt.Errorf("tightloop/idle: needs CoalesceMaxDelay > 0 and CoalesceCommits > latencyBurst (the cell deadlocks without the age backstop, by design)")
	}
	sys, err := harness.NewSystemKnobs(c.engine, c.knobs)
	if err != nil {
		return Point{}, err
	}
	rec := &latencyRecorder{}
	sys.WakeLatency = rec.record
	lanes := c.threads / 2
	burst := uint64(latencyBurst)
	rounds := c.ops
	counts := make([]uint64, lanes)
	var wg sync.WaitGroup
	secs := runTimed(func() {
		for lane := 0; lane < lanes; lane++ {
			wg.Add(2)
			count := &counts[lane]
			ready := make(chan struct{})
			consumed := make(chan struct{})
			go func() { // producer: bursts, then idles on a channel
				defer wg.Done()
				thr := sys.NewThread()
				defer thr.Detach()
				inc := func() {
					thr.Atomic(func(tx *tm.Tx) {
						tx.Write(count, tx.Read(count)+1)
					})
				}
				for r := 0; r < rounds; r++ {
					<-ready
					for i := uint64(0); i < burst-1; i++ {
						inc()
					}
					// Let the consumer reach its WaitPred sleep on the
					// partial count before the final increment defers the
					// one wakeup it needs.
					time.Sleep(time.Millisecond)
					inc()
					<-consumed
				}
			}()
			go func() { // consumer: one sleep-and-claim per round
				defer wg.Done()
				thr := sys.NewThread()
				defer thr.Detach()
				full := func(tx *tm.Tx, _ []uint64) bool { return tx.Read(count) >= burst }
				for r := 0; r < rounds; r++ {
					ready <- struct{}{}
					thr.Atomic(func(tx *tm.Tx) {
						c := tx.Read(count)
						if c < burst {
							core.WaitPred(tx, full)
						}
						tx.Write(count, c-burst)
					})
					consumed <- struct{}{}
				}
			}()
		}
		wg.Wait()
	})
	for lane, c := range counts {
		if c != 0 {
			return Point{}, fmt.Errorf("tightloop/idle: lane %d ends with %d unconsumed units (lost or duplicated wakeup)", lane, c)
		}
	}
	p.Ops = burst * uint64(rounds) * uint64(lanes)
	fill(&p, sys, secs)
	p.WakeSleeps, p.WakeLatencyP50Ns, p.WakeLatencyP99Ns, p.WakeLatencyMaxNs = rec.stats()
	return p, nil
}

// forBufferWorkers launches the worker topology: lanes producer/consumer
// pairs plus, when threads is odd (including 1), one alternator that both
// produces and consumes on lane 0 and therefore never deadlocks.
func forBufferWorkers(threads, lanes int, wg *sync.WaitGroup, body func(worker, lane int, produce, consume bool)) {
	spawn := func(worker, lane int, produce, consume bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(worker, lane, produce, consume)
		}()
	}
	if threads == 1 {
		spawn(0, 0, true, true)
		return
	}
	for l := 0; l < lanes; l++ {
		spawn(l, l, true, false)
		spawn(lanes+l, l, false, true)
	}
	if threads%2 == 1 {
		spawn(2*lanes, 0, true, true)
	}
}

func bufferOpsTotal(threads, lanes, ops int) uint64 {
	if threads == 1 {
		return uint64(2 * ops)
	}
	total := uint64(2*lanes) * uint64(ops)
	if threads%2 == 1 {
		total += uint64(2 * ops)
	}
	return total
}

// refMu guards the per-(benchmark, scale) reference checksum cache.
var refMu sync.Mutex
var refCache = map[string]uint64{}

func referenceFor(b *parsecsim.Benchmark, scale int) uint64 {
	key := fmt.Sprintf("%s/%d", b.Name, scale)
	refMu.Lock()
	defer refMu.Unlock()
	if v, ok := refCache[key]; ok {
		return v
	}
	v := b.Reference(scale)
	refCache[key] = v
	return v
}

// runParsec measures one PARSEC concurrency skeleton and verifies its
// checksum against the sequential reference.
func runParsec(c cell, trial int, o Options) (Point, error) {
	b, err := parsecsim.ByName(strings.TrimPrefix(c.workload, "parsec/"))
	if err != nil {
		return Point{}, err
	}
	p := c.point(trial)
	k := &parsecsim.Kit{Mech: c.m}
	var sys *tm.System
	if c.m != mech.Pthreads {
		sys, err = harness.NewSystemKnobs(c.engine, c.knobs)
		if err != nil {
			return Point{}, err
		}
		k.Sys = sys
	}
	want := referenceFor(b, o.Scale)
	var cs uint64
	secs := runTimed(func() { cs = b.Run(k, c.threads, o.Scale) })
	if cs != want {
		return Point{}, fmt.Errorf("checksum %x deviates from sequential reference %x", cs, want)
	}
	p.Checksum = cs
	fill(&p, sys, secs)
	return p, nil
}
