// Package perf is the seeded benchmark pipeline behind BENCH_PR2.json:
// a sweep driver that runs every TM engine × condition-synchronization
// mechanism over the repository's workloads (the lane-partitioned bounded
// buffer and the eight PARSEC concurrency skeletons) across a ladder of
// goroutine counts, from a fixed seed, and emits one machine-readable
// report per invocation. The report is the performance trajectory later
// PRs diff against: throughput, abort rate, the quantity the sharded orec
// table exists to shrink — wakeup-scan work per commit — and, since the
// CoalesceMaxDelay age bound, sleep-to-signal wake latency.
//
// Every run also self-checks: PARSEC checksums are diffed against the
// sequential reference, so a benchmark that silently computes the wrong
// thing fails instead of reporting a meaningless number.
package perf

import (
	"fmt"
	"math"
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
const Schema = "tmsync-bench/1"

// Options parameterizes one sweep. Zero values select defaults.
type Options struct {
	// Seed feeds the produced value streams; recorded in the report so a
	// run can be reproduced exactly.
	Seed uint64
	// Threads is the goroutine-count ladder (default 1, 2, 4, 8).
	Threads []int
	// Engines restricts the engine axis (default: all four).
	Engines []string
	// Mechs restricts the mechanism axis (default: all TM mechanisms;
	// the Pthreads baseline is always measured once per workload cell).
	Mechs []mech.Mechanism
	// Workloads restricts the workload axis (default: Workloads()).
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
	// SweepStripes is the stripe-count axis of the bounded-buffer stripe
	// sweep (default {1, 64}: the global table versus the sharded one).
	SweepStripes []int
	// Baseline includes the Pthreads lock+condvar baseline per workload.
	Baseline bool

	// OrigThreads is the goroutine ladder of the Retry-Orig contention
	// sweep; empty skips the sweep (cmd/tmbench passes 8,16 by default).
	// Each cell is a token ring of that many Retry-Orig workers, run on
	// the STM engines at every SweepStripes count, both batched and
	// unbatched — the A/B for the sharded registry and the per-commit
	// signal batch.
	OrigThreads []int
	// OrigPasses is the number of token hand-offs each ring worker
	// performs (default 400).
	OrigPasses int
	// OrigWindow is the number of ring slots each worker reads per
	// attempt (default 4): window reads inflate the sleeper's orec set
	// across registry shards and create the futile-wakeup crosstalk the
	// sweep is meant to stress.
	OrigWindow int

	// AdaptiveThreads is the goroutine ladder of the adaptive-vs-static
	// sweep; empty skips it (cmd/tmbench passes 8 by default). Each rung
	// reruns the stripe sweep's wakeup-bound cells (buffer under Retry
	// and Await, the Retry-Orig token ring) with the adaptive controller
	// enabled and a deliberately wrong starting count of one stripe,
	// bounded by [1, max(SweepStripes)] — the static cells of the stripe
	// and Retry-Orig sweeps are the baselines the verdict compares
	// against.
	AdaptiveThreads []int
	// AdaptiveOrigPasses is the token hand-offs per ring worker in the
	// adaptive Retry-Orig cells. Defaults to OrigPasses: the ring's
	// scan-cost rate drifts with run length on a loaded machine, so the
	// adaptive cells must run exactly as long as the static baseline
	// they are judged against.
	AdaptiveOrigPasses int

	// CoalesceThreads is the goroutine ladder of the cross-commit wakeup
	// coalescing sweep; empty skips it (cmd/tmbench passes 8 by default).
	// Each rung measures the tight-loop producer workload at every
	// CoalesceKs value, plus the bounded buffer (Retry and Await) and the
	// Retry-Orig token ring at {0, max K} as regression guards: those
	// workloads block constantly, so their scans flush at the block bound
	// and coalescing must neither help nor hurt them much.
	CoalesceThreads []int
	// CoalesceKs lists the Config.CoalesceCommits values the tight-loop
	// cells measure (default {0, 2, 8}; 0 — scan every commit — is the
	// baseline the verdict compares against and is always included).
	CoalesceKs []int
	// TightloopOps is the number of tight-loop producer commits per lane
	// (default 2000, rounded up to a TightloopBatch multiple);
	// TightloopBatch is the consumer's claim size (default 200).
	TightloopOps, TightloopBatch int

	// LatencyThreads is the goroutine ladder of the wake-latency sweep;
	// empty skips it (cmd/tmbench passes 8 by default). Each rung runs the
	// tightloop/idle workload — producers that go idle on a plain Go
	// channel with wake scans still pending, the exact shape of the
	// stranding bug — and measures sleep-to-signal latency where only the
	// CoalesceMaxDelay age backstop can deliver the wakeup.
	LatencyThreads []int
	// LatencyMaxDelay is the Config.CoalesceMaxDelay the latency cells run
	// with (default 25ms). LatencySlack is the scheduling allowance the
	// verdict grants on top of it (default 20ms): the backstop wakes
	// within OS-timer and scheduler slack of the deadline, not at it.
	LatencyMaxDelay, LatencySlack time.Duration
	// LatencyRounds is the number of burst/claim hand-offs per lane
	// (default 12; each round records one consumer sleep). LatencyBurst is
	// the commits per producer burst (default 8); the cells run
	// CoalesceCommits at four times this, so no commit-count bound can
	// preempt the age bound being measured.
	LatencyRounds, LatencyBurst int

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
	if o.OrigPasses == 0 {
		// 1200 passes x 8 workers ≈ 10k commits per cell: the ring's
		// scan-cost rates carry ±20% run noise at a few thousand commits,
		// which the adaptive-vs-static 10% comparison cannot tolerate.
		o.OrigPasses = 1200
	}
	if o.OrigWindow == 0 {
		o.OrigWindow = 4
	}
	if o.AdaptiveOrigPasses == 0 {
		o.AdaptiveOrigPasses = o.OrigPasses
	}
	if len(o.CoalesceKs) == 0 {
		o.CoalesceKs = []int{0, 2, 8}
	}
	hasZero := false
	for _, k := range o.CoalesceKs {
		if k == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		o.CoalesceKs = append([]int{0}, o.CoalesceKs...)
	}
	if o.TightloopOps == 0 {
		o.TightloopOps = 2000
	}
	if o.TightloopBatch == 0 {
		// A longer batch keeps consumers asleep through longer futile-scan
		// runs — the regime coalescing targets — without changing the
		// workload's total work.
		o.TightloopBatch = 200
	}
	if o.LatencyMaxDelay == 0 {
		o.LatencyMaxDelay = 25 * time.Millisecond
	}
	if o.LatencySlack == 0 {
		o.LatencySlack = 20 * time.Millisecond
	}
	if o.LatencyRounds == 0 {
		o.LatencyRounds = 12
	}
	if o.LatencyBurst == 0 {
		o.LatencyBurst = 8
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

// Point is one measured cell: workload × engine × mechanism × goroutine
// count (× stripe count, for the stripe sweep).
type Point struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"` // "none" for the Pthreads baseline
	Mech     string `json:"mech"`
	Threads  int    `json:"threads"`
	// Stripes is the orec-table stripe count (0 = engine default).
	Stripes int `json:"stripes,omitempty"`
	// Unbatched marks a point measured with signal-at-claim wakeup
	// delivery instead of the per-commit signal batch (the A/B baseline
	// of the Retry-Orig contention sweep).
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

// StripeVerdict summarizes the stripe sweep at the highest goroutine
// count: aggregate wakeup-scan work per commit under the fewest versus the
// most stripes. Improved is the PR's headline claim — sharding makes the
// post-commit wakeup cheaper.
type StripeVerdict struct {
	Workload             string  `json:"workload"`
	Threads              int     `json:"threads"`
	LowStripes           int     `json:"low_stripes"`
	HighStripes          int     `json:"high_stripes"`
	WakeupsPerCommitLow  float64 `json:"wakeups_per_commit_low_stripes"`
	WakeupsPerCommitHigh float64 `json:"wakeups_per_commit_high_stripes"`
	Improved             bool    `json:"improved"`
}

// OrigVerdict summarizes the Retry-Orig contention sweep at 8 goroutines
// (the acceptance point; the ladder also measures 16): the unsharded,
// unbatched baseline — one registry shard, signal-at-claim delivery, i.e.
// the pre-sharding implementation — against the sharded registry with the
// per-commit signal batch. ChecksImproved is the headline claim: a
// committing writer examines fewer sleeping Retry-Orig entries when it
// takes only the registry shards of stripes in its lock set.
type OrigVerdict struct {
	Workload  string `json:"workload"`
	Threads   int    `json:"threads"`
	Baseline  string `json:"baseline"` // e.g. "1 stripe, unbatched"
	Candidate string `json:"candidate"`

	OrigChecksPerCommitBaseline  float64 `json:"orig_checks_per_commit_baseline"`
	OrigChecksPerCommitCandidate float64 `json:"orig_checks_per_commit_candidate"`
	SignalsPerCommitBaseline     float64 `json:"signals_per_commit_baseline"`
	SignalsPerCommitCandidate    float64 `json:"signals_per_commit_candidate"`
	ThroughputBaseline           float64 `json:"throughput_baseline"`
	ThroughputCandidate          float64 `json:"throughput_candidate"`

	ChecksImproved  bool `json:"checks_improved"`
	SignalsImproved bool `json:"signals_improved"`
	Improved        bool `json:"improved"`
}

// AdaptiveVerdict summarizes the adaptive-vs-static sweep at 8 goroutines
// (the acceptance point): starting from a deliberately wrong stripe count
// of 1, the online controller must converge and land the full-run
// wakeup-scan cost — convergence transient included — within 10% of the
// best static configuration, on both the wakeup-bound buffer cells
// (wake-checks per commit, Retry and Await across all engines) and the
// Retry-Orig token ring (registry checks per commit).
type AdaptiveVerdict struct {
	Threads      int `json:"threads"`
	StartStripes int `json:"start_stripes"`
	MaxStripes   int `json:"max_stripes"`

	BufferBestStaticStripes   int     `json:"buffer_best_static_stripes"`
	BufferChecksPerCommitBest float64 `json:"buffer_wake_checks_per_commit_best_static"`
	BufferChecksPerCommitAdap float64 `json:"buffer_wake_checks_per_commit_adaptive"`
	BufferWithin10Pct         bool    `json:"buffer_within_10pct"`

	OrigBestStaticStripes   int     `json:"origring_best_static_stripes"`
	OrigChecksPerCommitBest float64 `json:"origring_checks_per_commit_best_static"`
	OrigChecksPerCommitAdap float64 `json:"origring_checks_per_commit_adaptive"`
	OrigWithin10Pct         bool    `json:"origring_within_10pct"`

	// Converged is the headline claim: both workloads landed within 10%.
	Converged bool `json:"converged"`
}

// CoalesceVerdict summarizes the cross-commit wakeup coalescing sweep at
// 8 goroutines (the acceptance point): the tight-loop producer workload —
// writers committing back-to-back with WaitPred consumers asleep on the
// unindexed list, the structure coalescing exists for — must pay fewer
// wake-scan checks per commit at the highest measured CoalesceCommits than
// at 0, while the bounded buffer and the Retry-Orig token ring, whose
// threads block constantly (so almost every scan flushes at the block
// bound), must not regress beyond noise.
type CoalesceVerdict struct {
	Threads int `json:"threads"`
	K       int `json:"k"` // highest CoalesceCommits measured

	TightloopChecksPerCommitOff float64 `json:"tightloop_wake_checks_per_commit_off"`
	TightloopChecksPerCommitOn  float64 `json:"tightloop_wake_checks_per_commit_on"`
	TightloopThroughputOff      float64 `json:"tightloop_throughput_off"`
	TightloopThroughputOn       float64 `json:"tightloop_throughput_on"`
	TightloopImproved           bool    `json:"tightloop_improved"`

	// The guard claims hold vacuously (rates zero, bool true) when the
	// guard's cells were filtered out of the sweep by -workloads/-engines.
	BufferChecksPerCommitOff float64 `json:"buffer_wake_checks_per_commit_off"`
	BufferChecksPerCommitOn  float64 `json:"buffer_wake_checks_per_commit_on"`
	BufferNoRegression       bool    `json:"buffer_no_regression"`

	OrigChecksPerCommitOff float64 `json:"origring_checks_per_commit_off"`
	OrigChecksPerCommitOn  float64 `json:"origring_checks_per_commit_on"`
	OrigNoRegression       bool    `json:"origring_no_regression"`

	// Improved is the headline claim: the tight-loop scans got cheaper and
	// neither blocking workload regressed.
	Improved bool `json:"improved"`
}

// LatencyVerdict summarizes the wake-latency sweep at 8 goroutines (or
// the sweep's highest rung): on the tightloop/idle workload — producers
// that go idle on a plain channel with wake scans still pending, so only
// the CoalesceMaxDelay age backstop can wake the sleeping consumers — the
// worst measured cell's p99 sleep-to-signal latency must stay within the
// configured bound plus a scheduling slack. The throughput fields compare
// this run's coalesce-sweep tight-loop throughput at the highest K
// against the prior report's (cmd/tmbench fills them; the guard passes
// vacuously without a prior report): bounding wake latency must not cost
// the tight loop the scans coalescing saved.
type LatencyVerdict struct {
	Workload   string `json:"workload"`
	Threads    int    `json:"threads"`
	K          int    `json:"k"` // CoalesceCommits the cells ran with
	MaxDelayNs int64  `json:"max_delay_ns"`
	SlackNs    int64  `json:"slack_ns"`

	// Sleeps pools every cell at the verdict rung; the quantiles are the
	// WORST cell's (max over per-cell quantiles — pooling raw samples
	// would let a fast engine's sleeps dilute a slow engine's tail).
	Sleeps uint64 `json:"sleeps"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
	// WithinBound additionally requires that sleeps were actually timed:
	// a run whose consumers never slept proves nothing about latency.
	WithinBound bool `json:"within_bound"`

	TightloopThroughputPrior float64 `json:"tightloop_throughput_prior,omitempty"`
	TightloopThroughput      float64 `json:"tightloop_throughput,omitempty"`
	ThroughputWithin10Pct    bool    `json:"throughput_within_10pct"`

	// Holds is the headline claim: no waiter sleeps past the age bound
	// (plus slack) while its notifier idles, at no material throughput
	// cost.
	Holds bool `json:"holds"`
}

// Report is the machine-readable result of one sweep (BENCH_PR<N>.json).
type Report struct {
	Schema          string           `json:"schema"`
	Generated       string           `json:"generated"`
	Seed            uint64           `json:"seed"`
	Threads         []int            `json:"threads"`
	Engines         []string         `json:"engines"`
	Mechs           []string         `json:"mechs"`
	Workloads       []string         `json:"workloads"`
	BufferOps       int              `json:"buffer_ops"`
	BufferCap       int              `json:"buffer_cap"`
	Scale           int              `json:"scale"`
	SweepStripes    []int            `json:"sweep_stripes"`
	OrigThreads     []int            `json:"orig_threads,omitempty"`
	OrigPasses      int              `json:"orig_passes,omitempty"`
	AdaptiveThreads []int            `json:"adaptive_threads,omitempty"`
	Points          []Point          `json:"points"`
	StripeSweep     []Point          `json:"stripe_sweep"`
	StripeVerdict   *StripeVerdict   `json:"stripe_verdict,omitempty"`
	OrigSweep       []Point          `json:"orig_sweep,omitempty"`
	OrigVerdict     *OrigVerdict     `json:"orig_verdict,omitempty"`
	AdaptiveSweep   []Point          `json:"adaptive_sweep,omitempty"`
	AdaptiveVerdict *AdaptiveVerdict `json:"adaptive_verdict,omitempty"`
	CoalesceThreads []int            `json:"coalesce_threads,omitempty"`
	CoalesceKs      []int            `json:"coalesce_ks,omitempty"`
	CoalesceSweep   []Point          `json:"coalesce_sweep,omitempty"`
	CoalesceVerdict *CoalesceVerdict `json:"coalesce_verdict,omitempty"`
	LatencyThreads  []int            `json:"latency_threads,omitempty"`
	LatencySweep    []Point          `json:"latency_sweep,omitempty"`
	LatencyVerdict  *LatencyVerdict  `json:"latency_verdict,omitempty"`
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

// mechRuns reports whether mechanism m runs on engine e.
func mechRuns(e string, m mech.Mechanism) bool {
	for _, x := range mech.ForEngine(e) {
		if x == m {
			return true
		}
	}
	return false
}

// Run executes the sweep. It fails fast on any workload self-check
// failure (a PARSEC checksum deviating from the sequential reference).
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
	}
	for _, m := range o.Mechs {
		rep.Mechs = append(rep.Mechs, string(m))
	}

	type cell struct {
		workload  string
		engine    string
		m         mech.Mechanism
		threads   int
		stripes   int
		sweep     bool
		orig      bool
		unbatched bool
		adaptive  bool
		coal      bool // belongs to the coalesce sweep
		lat       bool // belongs to the wake-latency sweep
		coalesce  int  // Config.CoalesceCommits for the cell
		maxDelay  time.Duration
		// reps repeats the cell (multiplied by Trials): the Retry-Orig
		// ring's scan rate carries heavy scheduling noise per run, and
		// pooled repetitions are what make a 10% comparison meaningful.
		reps int
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
					if m == mech.Pthreads || !mechRuns(e, m) {
						continue
					}
					cells = append(cells, cell{workload: w, engine: e, m: m, threads: threads})
				}
			}
		}
	}
	// Stripe sweep: the bounded buffer under the waitset-indexed
	// mechanisms (Retry and Await register waiters on the stripes of
	// their waitsets; WaitPred is unindexed by construction and TMCondVar
	// bypasses the waiter index entirely).
	maxThreads := 0
	for _, t := range o.Threads {
		if t > maxThreads {
			maxThreads = t
		}
	}
	sweepWorkload := "buffer"
	if maxThreads >= 2 && hasWorkload(o.Workloads, sweepWorkload) {
		for _, stripes := range o.SweepStripes {
			for _, e := range o.Engines {
				for _, m := range []mech.Mechanism{mech.Retry, mech.Await} {
					// reps pools allocation luck: whether two lanes'
					// words share a stripe is decided by the heap layout
					// each run draws, and the adaptive verdict's 10%
					// comparison needs that averaged on both sides.
					cells = append(cells, cell{workload: sweepWorkload, engine: e, m: m, threads: maxThreads, stripes: stripes, sweep: true, reps: 4})
				}
			}
		}
	}
	// Retry-Orig contention sweep: the token ring on the STM engines
	// (Retry-Orig needs orec metadata), at every sweep stripe count, both
	// with the per-commit signal batch and without it. The {fewest
	// stripes, unbatched} corner IS the pre-sharding implementation — one
	// global registry scan per commit, signal-at-claim — so the sweep
	// carries its own baseline.
	if len(o.OrigThreads) > 0 {
		rep.OrigThreads = o.OrigThreads
		rep.OrigPasses = o.OrigPasses
		for _, threads := range o.OrigThreads {
			for _, e := range o.Engines {
				if e != "eager" && e != "lazy" {
					continue
				}
				for _, stripes := range o.SweepStripes {
					for _, unbatched := range []bool{true, false} {
						// The ring cells are cheap (tens of ms) and their
						// scan rate has metastable scheduling regimes;
						// heavy pooling is what makes the verdicts stable.
						cells = append(cells, cell{workload: "origring", engine: e, m: mech.RetryOrig, threads: threads, stripes: stripes, orig: true, unbatched: unbatched, reps: 10})
					}
				}
			}
		}
	}
	// Adaptive-vs-static sweep: the stripe sweep's wakeup-bound buffer
	// cells and the Retry-Orig ring, re-run with the online controller
	// enabled and a deliberately wrong one-stripe start. The static cells
	// above are the baselines, so only the adaptive runs are added here.
	if len(o.AdaptiveThreads) > 0 {
		rep.AdaptiveThreads = o.AdaptiveThreads
		for _, threads := range o.AdaptiveThreads {
			if hasWorkload(o.Workloads, sweepWorkload) && threads >= 2 {
				for _, e := range o.Engines {
					for _, m := range []mech.Mechanism{mech.Retry, mech.Await} {
						cells = append(cells, cell{workload: sweepWorkload, engine: e, m: m, threads: threads, stripes: 1, adaptive: true, reps: 6})
					}
				}
			}
			for _, e := range o.Engines {
				if e != "eager" && e != "lazy" {
					continue
				}
				cells = append(cells, cell{workload: "origring", engine: e, m: mech.RetryOrig, threads: threads, stripes: 1, orig: true, adaptive: true, reps: 10})
			}
		}
	}

	// Cross-commit wakeup coalescing sweep: the tight-loop producer
	// workload at every CoalesceCommits value, plus the blocking workloads
	// (buffer under the waitset-indexed mechanisms, the Retry-Orig ring)
	// at {0, max K} as regression guards. All cells run at the engines'
	// default stripe geometry — coalescing composes with sharding; this
	// sweep isolates the cross-commit axis.
	coalesceMaxK := 0
	for _, k := range o.CoalesceKs {
		if k > coalesceMaxK {
			coalesceMaxK = k
		}
	}
	if len(o.CoalesceThreads) > 0 && coalesceMaxK > 0 {
		rep.CoalesceThreads = o.CoalesceThreads
		rep.CoalesceKs = o.CoalesceKs
		for _, threads := range o.CoalesceThreads {
			if threads < 2 {
				continue // the tight loop needs producer/consumer pairs
			}
			for _, e := range o.Engines {
				for _, k := range o.CoalesceKs {
					cells = append(cells, cell{workload: "tightloop", engine: e, m: mech.WaitPred, threads: threads, coal: true, coalesce: k, reps: 4})
				}
			}
			for _, k := range []int{0, coalesceMaxK} {
				if hasWorkload(o.Workloads, sweepWorkload) {
					for _, e := range o.Engines {
						for _, m := range []mech.Mechanism{mech.Retry, mech.Await} {
							cells = append(cells, cell{workload: sweepWorkload, engine: e, m: m, threads: threads, coal: true, coalesce: k, reps: 4})
						}
					}
				}
				for _, e := range o.Engines {
					if e != "eager" && e != "lazy" {
						continue
					}
					cells = append(cells, cell{workload: "origring", engine: e, m: mech.RetryOrig, threads: threads, orig: true, coal: true, coalesce: k, reps: 10})
				}
			}
		}
	}
	// Wake-latency sweep: the tightloop/idle workload at every
	// LatencyThreads rung × engine, coalescing armed with the age bound.
	// Producers go idle on a plain channel mid-round with wake scans still
	// pending, so the cells are a direct measurement of the idle-owner
	// backstop: without it every one of them deadlocks.
	if len(o.LatencyThreads) > 0 {
		rep.LatencyThreads = o.LatencyThreads
		for _, threads := range o.LatencyThreads {
			if threads < 2 {
				continue // needs producer/consumer pairs
			}
			for _, e := range o.Engines {
				cells = append(cells, cell{workload: "tightloop/idle", engine: e, m: mech.WaitPred, threads: threads, lat: true, coalesce: 4 * o.LatencyBurst, maxDelay: o.LatencyMaxDelay, reps: 3})
			}
		}
	}

	highStripes := 0
	for _, s := range o.SweepStripes {
		if s > highStripes {
			highStripes = s
		}
	}

	total := 0
	for _, c := range cells {
		reps := c.reps
		if reps == 0 {
			reps = 1
		}
		total += reps * o.Trials
	}
	done := 0
	for _, c := range cells {
		reps := c.reps
		if reps == 0 {
			reps = 1
		}
		for trial := 0; trial < reps*o.Trials; trial++ {
			k := harness.Knobs{Stripes: c.stripes, Unbatched: c.unbatched, CoalesceCommits: c.coalesce, CoalesceMaxDelay: c.maxDelay}
			if c.adaptive {
				// Start deliberately wrong (one stripe, the old global
				// table) and let the controller roam up to the sweep's
				// best static count.
				k.MinStripes, k.MaxStripes = 1, highStripes
				// The adaptive cells run exactly as long as their static
				// baselines, so the convergence transient must be short:
				// a 16-commit window converges 1 -> 64 within ~100 of
				// the ~10k commits each cell measures.
				k.AdaptWindow = 16
			}
			var p Point
			var err error
			if c.orig {
				passes := o.OrigPasses
				if c.adaptive {
					passes = o.AdaptiveOrigPasses
				}
				p, err = runOrigRing(c.engine, c.threads, k, passes, trial, o)
			} else {
				p, err = runCell(c.workload, c.engine, c.m, c.threads, k, trial, o)
			}
			if err != nil {
				return nil, fmt.Errorf("perf: %s %s/%s t=%d: %w", c.workload, c.engine, c.m, c.threads, err)
			}
			p.Adaptive = c.adaptive
			p.Coalesce = c.coalesce
			switch {
			case c.lat:
				rep.LatencySweep = append(rep.LatencySweep, p)
			case c.coal:
				rep.CoalesceSweep = append(rep.CoalesceSweep, p)
			case c.adaptive:
				rep.AdaptiveSweep = append(rep.AdaptiveSweep, p)
			case c.orig:
				rep.OrigSweep = append(rep.OrigSweep, p)
			case c.sweep:
				rep.StripeSweep = append(rep.StripeSweep, p)
			default:
				rep.Points = append(rep.Points, p)
			}
			done++
			if o.Progress != nil {
				o.Progress(done, total, p)
			}
		}
	}
	rep.StripeVerdict = verdict(rep.StripeSweep, sweepWorkload, maxThreads, o.SweepStripes)
	rep.OrigVerdict = origVerdict(rep.OrigSweep, o.SweepStripes)
	rep.AdaptiveVerdict = adaptiveVerdict(rep, o, sweepWorkload, maxThreads, highStripes)
	rep.CoalesceVerdict = coalesceVerdict(rep.CoalesceSweep, sweepWorkload, coalesceMaxK)
	rep.LatencyVerdict = latencyVerdict(rep.LatencySweep, o)
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
func runOrigRing(engine string, threads int, k harness.Knobs, passes, trial int, o Options) (Point, error) {
	p := Point{Workload: "origring", Engine: engine, Mech: string(mech.RetryOrig), Threads: threads, Stripes: k.Stripes, Unbatched: k.Unbatched, Trial: trial}
	sys, err := harness.NewSystemKnobs(engine, k)
	if err != nil {
		return Point{}, err
	}
	n := threads
	window := o.OrigWindow
	if window > n {
		window = n
	}
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
				for pass := 0; pass < passes; pass++ {
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
	p.Ops = uint64(n) * uint64(passes)
	fill(&p, sys, secs)
	return p, nil
}

// origVerdict aggregates the Retry-Orig sweep at 8 goroutines (or the
// lowest measured rung): {fewest stripes, unbatched} — the pre-sharding
// implementation — versus {most stripes, batched}.
func origVerdict(sweep []Point, stripes []int) *OrigVerdict {
	if len(sweep) == 0 || len(stripes) < 2 {
		return nil
	}
	low, high := stripes[0], stripes[0]
	for _, s := range stripes {
		if s < low {
			low = s
		}
		if s > high {
			high = s
		}
	}
	threads := sweep[0].Threads
	for _, p := range sweep {
		if p.Threads == 8 {
			threads = 8
		}
	}
	agg := func(wantStripes int, wantUnbatched bool) (checks, signals, thru float64) {
		var origChecks, wakeups, commits uint64
		var thruSum float64
		var cells int
		for _, p := range sweep {
			if p.Threads != threads || p.Stripes != wantStripes || p.Unbatched != wantUnbatched {
				continue
			}
			origChecks += p.OrigShardChecks
			wakeups += p.Wakeups
			commits += p.Commits
			thruSum += p.Throughput
			cells++
		}
		if commits > 0 {
			checks = float64(origChecks) / float64(commits)
			signals = float64(wakeups) / float64(commits)
		}
		if cells > 0 {
			thru = thruSum / float64(cells)
		}
		return
	}
	v := &OrigVerdict{
		Workload:  "origring",
		Threads:   threads,
		Baseline:  fmt.Sprintf("%d stripe(s), unbatched", low),
		Candidate: fmt.Sprintf("%d stripes, batched", high),
	}
	v.OrigChecksPerCommitBaseline, v.SignalsPerCommitBaseline, v.ThroughputBaseline = agg(low, true)
	v.OrigChecksPerCommitCandidate, v.SignalsPerCommitCandidate, v.ThroughputCandidate = agg(high, false)
	v.ChecksImproved = v.OrigChecksPerCommitCandidate < v.OrigChecksPerCommitBaseline
	v.SignalsImproved = v.SignalsPerCommitCandidate <= v.SignalsPerCommitBaseline
	v.Improved = v.ChecksImproved && v.SignalsImproved
	return v
}

// adaptiveVerdict compares the adaptive sweep against the best static
// configuration measured by the stripe and Retry-Orig sweeps, at the
// acceptance rung (8 goroutines when measured, else the sweep's rung).
// The adaptive numbers are full-run averages, convergence transient
// included — the controller must not merely reach the right count, it
// must reach it fast enough that the detour stays within 10%.
func adaptiveVerdict(rep *Report, o Options, workload string, staticThreads, highStripes int) *AdaptiveVerdict {
	if len(rep.AdaptiveSweep) == 0 {
		return nil
	}
	threads := rep.AdaptiveSweep[0].Threads
	for _, p := range rep.AdaptiveSweep {
		if p.Threads == 8 {
			threads = 8
		}
	}
	if threads != staticThreads {
		// No comparable static baseline was measured at this rung.
		return nil
	}
	v := &AdaptiveVerdict{Threads: threads, StartStripes: 1, MaxStripes: highStripes}

	// Buffer: wake checks per commit over the wakeup-bound cells (Retry
	// and Await, all engines), static per stripe count vs adaptive.
	bufStatic := func(stripes int) (float64, bool) {
		var checks, commits uint64
		for _, p := range rep.StripeSweep {
			if p.Workload == workload && p.Threads == threads && p.Stripes == stripes {
				checks += p.WakeChecks
				commits += p.Commits
			}
		}
		if commits == 0 {
			return 0, false
		}
		return float64(checks) / float64(commits), true
	}
	bestBuf, haveBuf := 0.0, false
	for _, s := range o.SweepStripes {
		if r, ok := bufStatic(s); ok && (!haveBuf || r < bestBuf) {
			bestBuf, v.BufferBestStaticStripes, haveBuf = r, s, true
		}
	}
	var bufChecks, bufCommits uint64
	for _, p := range rep.AdaptiveSweep {
		if p.Workload == workload && p.Threads == threads {
			bufChecks += p.WakeChecks
			bufCommits += p.Commits
		}
	}
	if haveBuf && bufCommits > 0 {
		v.BufferChecksPerCommitBest = bestBuf
		v.BufferChecksPerCommitAdap = float64(bufChecks) / float64(bufCommits)
		v.BufferWithin10Pct = v.BufferChecksPerCommitAdap <= 1.10*bestBuf
	}

	// Retry-Orig ring: registry checks per commit, static batched cells
	// per stripe count vs adaptive.
	origStatic := func(stripes int) (float64, bool) {
		var checks, commits uint64
		for _, p := range rep.OrigSweep {
			if p.Threads == threads && p.Stripes == stripes && !p.Unbatched {
				checks += p.OrigShardChecks
				commits += p.Commits
			}
		}
		if commits == 0 {
			return 0, false
		}
		return float64(checks) / float64(commits), true
	}
	bestOrig, haveOrig := 0.0, false
	for _, s := range o.SweepStripes {
		if r, ok := origStatic(s); ok && (!haveOrig || r < bestOrig) {
			bestOrig, v.OrigBestStaticStripes, haveOrig = r, s, true
		}
	}
	var origChecks, origCommits uint64
	for _, p := range rep.AdaptiveSweep {
		if p.Workload == "origring" && p.Threads == threads {
			origChecks += p.OrigShardChecks
			origCommits += p.Commits
		}
	}
	if haveOrig && origCommits > 0 {
		v.OrigChecksPerCommitBest = bestOrig
		v.OrigChecksPerCommitAdap = float64(origChecks) / float64(origCommits)
		v.OrigWithin10Pct = v.OrigChecksPerCommitAdap <= 1.10*bestOrig
	}

	v.Converged = (haveBuf && bufCommits > 0 && v.BufferWithin10Pct) &&
		(haveOrig && origCommits > 0 && v.OrigWithin10Pct)
	return v
}

// verdict aggregates the sweep's wakeup-scan work per commit at the low
// and high stripe counts.
func verdict(sweep []Point, workload string, threads int, stripes []int) *StripeVerdict {
	if len(sweep) == 0 || len(stripes) < 2 {
		return nil
	}
	low, high := stripes[0], stripes[0]
	for _, s := range stripes {
		if s < low {
			low = s
		}
		if s > high {
			high = s
		}
	}
	rate := func(want int) float64 {
		var checks, commits uint64
		for _, p := range sweep {
			if p.Workload == workload && p.Threads == threads && p.Stripes == want {
				checks += p.WakeChecks
				commits += p.Commits
			}
		}
		if commits == 0 {
			return 0
		}
		return float64(checks) / float64(commits)
	}
	v := &StripeVerdict{
		Workload:             workload,
		Threads:              threads,
		LowStripes:           low,
		HighStripes:          high,
		WakeupsPerCommitLow:  rate(low),
		WakeupsPerCommitHigh: rate(high),
	}
	v.Improved = v.WakeupsPerCommitHigh < v.WakeupsPerCommitLow
	return v
}

func hasWorkload(ws []string, w string) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
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

func runCell(workload, engine string, m mech.Mechanism, threads int, k harness.Knobs, trial int, o Options) (Point, error) {
	if workload == "buffer" {
		return runBuffer(engine, m, threads, k, trial, o)
	}
	if workload == "tightloop" {
		return runTightloop(engine, threads, k, trial, o)
	}
	if workload == "tightloop/idle" {
		return runTightloopIdle(engine, threads, k, trial, o)
	}
	if strings.HasPrefix(workload, "parsec/") {
		return runParsec(strings.TrimPrefix(workload, "parsec/"), engine, m, threads, k, trial, o)
	}
	return Point{}, fmt.Errorf("unknown workload %q", workload)
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
func runBuffer(engine string, m mech.Mechanism, threads int, k harness.Knobs, trial int, o Options) (Point, error) {
	p := Point{Workload: "buffer", Engine: engine, Mech: string(m), Threads: threads, Stripes: k.Stripes, Trial: trial}
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

	sys, err := harness.NewSystemKnobs(engine, k)
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
// sweep: per lane, a producer commits back-to-back increments of the
// lane's counter — it never blocks, so nothing but the coalescing bounds
// ever interrupts its commit stream — while a consumer sleeps in WaitPred
// until a full batch has accumulated and then claims it. WaitPred waiters
// live on the unindexed list that every writer commit scans, so at
// CoalesceCommits = 0 each producer commit pays one wake check per
// sleeping consumer; coalescing divides that by the flush interval. The
// consumer's own commits exercise the block-bound flush. Self-check:
// every produced unit is consumed (all counters end at zero).
func runTightloop(engine string, threads int, k harness.Knobs, trial int, o Options) (Point, error) {
	p := Point{Workload: "tightloop", Engine: engine, Mech: string(mech.WaitPred), Threads: threads, Stripes: k.Stripes, Trial: trial}
	if threads < 2 {
		return Point{}, fmt.Errorf("tightloop: need at least 2 threads (have %d)", threads)
	}
	sys, err := harness.NewSystemKnobs(engine, k)
	if err != nil {
		return Point{}, err
	}
	lanes := threads / 2
	batch := uint64(o.TightloopBatch)
	ops := uint64(o.TightloopOps)
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
// the producer commits LatencyBurst-1 increments (the consumer reads the
// partial count and sleeps in WaitPred), pauses a moment so the consumer
// is asleep, commits the final increment that makes the predicate true —
// the scan is deferred, CoalesceCommits being four bursts deep — and then
// blocks on a plain Go channel. No attempt-triggered flush bound can fire
// while it idles there (and it must not poll the count transactionally:
// that would trip the read-back flush and measure the wrong mechanism),
// so only the CoalesceMaxDelay backstop can wake the consumer; the timed
// sleep-to-signal latency is the age bound's enforcement latency plus
// scheduling slack. Self-check: every produced unit is consumed.
func runTightloopIdle(engine string, threads int, k harness.Knobs, trial int, o Options) (Point, error) {
	p := Point{Workload: "tightloop/idle", Engine: engine, Mech: string(mech.WaitPred), Threads: threads, MaxDelayNs: int64(k.CoalesceMaxDelay), Trial: trial}
	if threads < 2 {
		return Point{}, fmt.Errorf("tightloop/idle: need at least 2 threads (have %d)", threads)
	}
	if k.CoalesceMaxDelay <= 0 || k.CoalesceCommits <= o.LatencyBurst {
		return Point{}, fmt.Errorf("tightloop/idle: needs CoalesceMaxDelay > 0 and CoalesceCommits > LatencyBurst (the cell deadlocks without the age backstop, by design)")
	}
	sys, err := harness.NewSystemKnobs(engine, k)
	if err != nil {
		return Point{}, err
	}
	rec := &latencyRecorder{}
	sys.WakeLatency = rec.record
	lanes := threads / 2
	burst := uint64(o.LatencyBurst)
	rounds := o.LatencyRounds
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

// latencyVerdict aggregates the wake-latency sweep at 8 goroutines (or
// its highest rung). The quantiles take the worst cell rather than
// pooling samples, and the throughput guard stays vacuously true here —
// cmd/tmbench fills it from the prior report's coalesce verdict and
// recomputes Holds.
func latencyVerdict(sweep []Point, o Options) *LatencyVerdict {
	if len(sweep) == 0 {
		return nil
	}
	threads := 0
	for _, p := range sweep {
		if p.Threads > threads {
			threads = p.Threads
		}
	}
	v := &LatencyVerdict{
		Workload:              "tightloop/idle",
		Threads:               threads,
		K:                     4 * o.LatencyBurst,
		MaxDelayNs:            int64(o.LatencyMaxDelay),
		SlackNs:               int64(o.LatencySlack),
		ThroughputWithin10Pct: true,
	}
	for _, p := range sweep {
		if p.Threads != threads {
			continue
		}
		v.Sleeps += p.WakeSleeps
		if p.WakeLatencyP50Ns > v.P50Ns {
			v.P50Ns = p.WakeLatencyP50Ns
		}
		if p.WakeLatencyP99Ns > v.P99Ns {
			v.P99Ns = p.WakeLatencyP99Ns
		}
		if p.WakeLatencyMaxNs > v.MaxNs {
			v.MaxNs = p.WakeLatencyMaxNs
		}
	}
	v.WithinBound = v.Sleeps > 0 && v.P99Ns <= v.MaxDelayNs+v.SlackNs
	v.Holds = v.WithinBound && v.ThroughputWithin10Pct
	return v
}

// coalesceVerdict aggregates the coalesce sweep at 8 goroutines (or the
// sweep's rung), pooled across engines and mechanisms per workload: the
// tight loop must get cheaper at the highest K, the blocking workloads
// must stay within noise (10%) of their K=0 scan rates.
func coalesceVerdict(sweep []Point, workload string, maxK int) *CoalesceVerdict {
	if len(sweep) == 0 || maxK == 0 {
		return nil
	}
	// Judge at the highest measured rung — the most contended one —
	// matching the "highest K" convention of the knob axis.
	threads := 0
	for _, p := range sweep {
		if p.Threads > threads {
			threads = p.Threads
		}
	}
	type agg struct {
		checks, orig, commits uint64
		thru                  float64
		cells                 int
	}
	pool := func(workload string, k int) agg {
		var a agg
		for _, p := range sweep {
			if p.Workload != workload || p.Threads != threads || p.Coalesce != k {
				continue
			}
			a.checks += p.WakeChecks
			a.orig += p.OrigShardChecks
			a.commits += p.Commits
			a.thru += p.Throughput
			a.cells++
		}
		return a
	}
	rate := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	v := &CoalesceVerdict{Threads: threads, K: maxK}

	tOff, tOn := pool("tightloop", 0), pool("tightloop", maxK)
	v.TightloopChecksPerCommitOff = rate(tOff.checks, tOff.commits)
	v.TightloopChecksPerCommitOn = rate(tOn.checks, tOn.commits)
	if tOff.cells > 0 {
		v.TightloopThroughputOff = tOff.thru / float64(tOff.cells)
	}
	if tOn.cells > 0 {
		v.TightloopThroughputOn = tOn.thru / float64(tOn.cells)
	}
	v.TightloopImproved = tOn.commits > 0 && tOff.commits > 0 &&
		v.TightloopChecksPerCommitOn < v.TightloopChecksPerCommitOff

	// A guard whose cells were filtered out of the sweep (-workloads
	// without buffer, -engines without an STM engine) is not applicable,
	// not a regression: it passes vacuously so a narrowed run's tightloop
	// improvement is not reported as "no improvement".
	bOff, bOn := pool(workload, 0), pool(workload, maxK)
	v.BufferChecksPerCommitOff = rate(bOff.checks, bOff.commits)
	v.BufferChecksPerCommitOn = rate(bOn.checks, bOn.commits)
	v.BufferNoRegression = bOn.commits == 0 || bOff.commits == 0 ||
		v.BufferChecksPerCommitOn <= 1.10*v.BufferChecksPerCommitOff

	oOff, oOn := pool("origring", 0), pool("origring", maxK)
	v.OrigChecksPerCommitOff = rate(oOff.orig, oOff.commits)
	v.OrigChecksPerCommitOn = rate(oOn.orig, oOn.commits)
	v.OrigNoRegression = oOn.commits == 0 || oOff.commits == 0 ||
		v.OrigChecksPerCommitOn <= 1.10*v.OrigChecksPerCommitOff

	v.Improved = v.TightloopImproved && v.BufferNoRegression && v.OrigNoRegression
	return v
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
func runParsec(name, engine string, m mech.Mechanism, threads int, knobs harness.Knobs, trial int, o Options) (Point, error) {
	b, err := parsecsim.ByName(name)
	if err != nil {
		return Point{}, err
	}
	p := Point{Workload: "parsec/" + name, Engine: engine, Mech: string(m), Threads: threads, Stripes: knobs.Stripes, Trial: trial}
	k := &parsecsim.Kit{Mech: m}
	var sys *tm.System
	if m != mech.Pthreads {
		sys, err = harness.NewSystemKnobs(engine, knobs)
		if err != nil {
			return Point{}, err
		}
		k.Sys = sys
	}
	want := referenceFor(b, o.Scale)
	var cs uint64
	secs := runTimed(func() { cs = b.Run(k, threads, o.Scale) })
	if cs != want {
		return Point{}, fmt.Errorf("checksum %x deviates from sequential reference %x", cs, want)
	}
	p.Checksum = cs
	fill(&p, sys, secs)
	return p, nil
}
