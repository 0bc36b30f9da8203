package perf

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"tmsync/internal/harness"
	"tmsync/internal/mech"
)

// The experiment table. Each row pins one claim of the paper's
// condition-synchronization design — the waiting mechanisms are
// interchangeable, and a committer pays for wakeups only when someone
// waits — to a set of cells run beside the main sweep and a verdict that
// judges them. Adding a claim means adding a row: the sweep loop, the
// report and cmd/tmbench's printer are generic over the table.

// Fixed workload shapes of the experiment cells.
const (
	// origWindow is the number of ring slots each Retry-Orig ring worker
	// reads per attempt: window reads spread the sleeper's orec set across
	// registry shards and create the futile-wakeup crosstalk the
	// retry-orig experiment stresses.
	origWindow = 4
	// tightloopBatch is the tight-loop consumer's claim size. A long batch
	// keeps consumers asleep through long futile-scan runs — the regime
	// coalescing targets — without changing the workload's total work.
	tightloopBatch = 200
	// latencyBurst is the commits per producer burst in the wake-latency
	// cells, which run CoalesceCommits at four times this so that no
	// commit-count bound can preempt the age bound being measured.
	latencyBurst = 8
	// latencySlack is the scheduling allowance the latency verdict grants
	// on top of CoalesceMaxDelay: the backstop wakes within OS-timer and
	// scheduler slack of the deadline, not at it.
	latencySlack = 20 * time.Millisecond
	// coalesceK is the highest CoalesceCommits the coalesce experiment
	// measures, the setting its verdict judges.
	coalesceK = 8
)

// experiment is one row of the table.
type experiment struct {
	name string
	// threads is the goroutine ladder; the verdict judges the first rung.
	threads []int
	cells   []cellSpec
	checks  []check
}

// cellSpec expands to one cell per rung × knob setting × engine ×
// mechanism the engine runs. Buffer cells are skipped when the run's
// workload axis excludes the buffer; the experiment-only workloads
// (origring, tightloop, tightloop/idle) always run.
type cellSpec struct {
	workload string
	mechs    []mech.Mechanism
	knobs    []harness.Knobs
	// reps repeats the cell (multiplied by Options.Trials): scan rates
	// carry scheduling noise per run, and pooled repetitions are what
	// make a 10% comparison meaningful.
	reps int
	// ops and quickOps size the experiment-only workloads at full and
	// -quick scale: token hand-offs per origring worker, producer commits
	// per tightloop lane, burst/claim rounds per tightloop/idle lane.
	// Buffer cells use Options.BufferOps.
	ops, quickOps int
}

// group selects the points one side of a check pools: one experiment's
// points at the verdict rung with exactly these identifying fields.
type group struct {
	exp       string
	workload  string
	stripes   int
	unbatched bool
	coalesce  int
}

func (g group) String() string {
	s := g.exp + ":" + g.workload
	if g.stripes > 0 {
		s += fmt.Sprintf(" stripes=%d", g.stripes)
	}
	if g.unbatched {
		s += " unbatched"
	}
	if g.coalesce > 0 {
		s += fmt.Sprintf(" k=%d", g.coalesce)
	}
	return s
}

func (g group) points(pts []Point, threads int) []Point {
	var out []Point
	for _, p := range pts {
		if p.Experiment == g.exp && p.Workload == g.workload && p.Threads == threads &&
			p.Stripes == g.stripes && p.Unbatched == g.unbatched && p.Coalesce == g.coalesce {
			out = append(out, p)
		}
	}
	return out
}

// metric reduces a group's points to one number.
type metric struct {
	name string
	of   func(Point) float64
	pool pooling
	// higher marks a metric where more is better (throughput, sleeps).
	higher bool
}

// pooling is how a metric combines the per-point values of a group.
type pooling int

const (
	perCommit pooling = iota // pooled sum over pooled commits
	mean                     // mean over points
	worst                    // max over points
	total                    // sum over points
)

var (
	wakeChecksPerCommit = metric{name: "wake_checks/commit", of: func(p Point) float64 { return float64(p.WakeChecks) }}
	origChecksPerCommit = metric{name: "orig_checks/commit", of: func(p Point) float64 { return float64(p.OrigShardChecks) }}
	signalsPerCommit    = metric{name: "signals/commit", of: func(p Point) float64 { return float64(p.Wakeups) }}
	meanThroughput      = metric{name: "throughput/s", of: func(p Point) float64 { return p.Throughput }, pool: mean, higher: true}
	sleeps              = metric{name: "timed sleeps", of: func(p Point) float64 { return float64(p.WakeSleeps) }, pool: total, higher: true}
	// The latency quantiles take the worst cell rather than pooling raw
	// samples, which would let a fast engine's sleeps dilute a slow
	// engine's tail.
	worstP50   = metric{name: "worst-cell p50 sleep-to-signal ns", of: func(p Point) float64 { return float64(p.WakeLatencyP50Ns) }, pool: worst}
	worstP99   = metric{name: "worst-cell p99 sleep-to-signal ns", of: func(p Point) float64 { return float64(p.WakeLatencyP99Ns) }, pool: worst}
	worstSleep = metric{name: "worst sleep-to-signal ns", of: func(p Point) float64 { return float64(p.WakeLatencyMaxNs) }, pool: worst}
)

// over evaluates m on pts; ok is false when the group is empty (no
// points, or no commits for a per-commit ratio), and the value is then 0.
func (m metric) over(pts []Point) (v float64, ok bool) {
	var commits float64
	for _, p := range pts {
		if x := m.of(p); m.pool == worst {
			v = max(v, x)
		} else {
			v += x
		}
		commits += float64(p.Commits)
	}
	switch {
	case len(pts) == 0 || m.pool == perCommit && commits == 0:
		return 0, false
	case m.pool == perCommit:
		return v / commits, true
	case m.pool == mean:
		return v / float64(len(pts)), true
	}
	return v, true
}

// beats reports whether a is strictly better than b.
func (m metric) beats(a, b float64) bool {
	if m.higher {
		return a > b
	}
	return a < b
}

// relation is how a check's candidate must compare with its baseline,
// in the metric's direction of improvement.
type relation int

const (
	better  relation = iota // strictly better
	noWorse                 // no worse than factor × baseline (factor 0 = 1)
	info                    // reported, never judged
)

// check is one claim of a verdict.
type check struct {
	name   string
	metric metric
	cand   group
	// The baseline is the best of base; with base empty, the cand group in
	// the prior report when prior is set, else the constant value.
	base   []group
	prior  bool
	value  float64
	rel    relation
	factor float64
	// vacuous makes the check hold when either side has no points: a
	// guard whose cells a narrowed run filtered out is not applicable, not
	// a regression.
	vacuous bool
}

func (c check) relation() string {
	if c.rel == info {
		return "vs"
	}
	op := "<"
	if c.metric.higher {
		op = ">"
	}
	if c.rel == better {
		return op
	}
	if c.factor == 0 {
		return op + "="
	}
	return fmt.Sprintf("%s=%.2fx", op, c.factor)
}

func (c check) holds(cand, base float64) bool {
	switch c.rel {
	case better:
		return c.metric.beats(cand, base)
	case noWorse:
		f := c.factor
		if f == 0 {
			f = 1
		}
		return !c.metric.beats(f*base, cand)
	}
	return true
}

// Verdict is one experiment's judgement, recorded in the report.
type Verdict struct {
	Name    string  `json:"name"`
	Threads int     `json:"threads"`
	Checks  []Check `json:"checks"`
	// Holds is the experiment's claim: every judged check held.
	Holds bool `json:"holds"`
}

// Check is one judged comparison of a Verdict.
type Check struct {
	Name           string  `json:"name"`
	Metric         string  `json:"metric"`
	Relation       string  `json:"relation"` // candidate <relation> baseline; "vs": reported, not judged
	Candidate      float64 `json:"candidate"`
	Baseline       float64 `json:"baseline"`
	CandidateCells string  `json:"candidate_cells"`
	BaselineCells  string  `json:"baseline_cells"`
	Held           bool    `json:"held"`
	// Vacuous marks a check that held only because a side had no points.
	Vacuous bool `json:"vacuous,omitempty"`
}

// judge evaluates the experiment's checks on rep's points (and prior's,
// for prior baselines; prior may be nil).
func (x experiment) judge(rep, prior *Report) Verdict {
	t := x.threads[0]
	v := Verdict{Name: x.name, Threads: t, Holds: true}
	for _, c := range x.checks {
		r := Check{Name: c.name, Metric: c.metric.name, Relation: c.relation(), CandidateCells: c.cand.String()}
		var okC, okB bool
		r.Candidate, okC = c.metric.over(c.cand.points(rep.Points, t))
		switch {
		case len(c.base) > 0:
			for _, g := range c.base {
				b, ok := c.metric.over(g.points(rep.Points, t))
				if ok && (!okB || c.metric.beats(b, r.Baseline)) {
					r.Baseline, r.BaselineCells, okB = b, g.String(), true
				}
			}
		case c.prior:
			r.BaselineCells = "prior report " + c.cand.String()
			if prior != nil {
				r.Baseline, okB = c.metric.over(c.cand.points(prior.Points, t))
			}
		default:
			r.Baseline, r.BaselineCells, okB = c.value, "bound", true
		}
		if okC && okB {
			r.Held = c.holds(r.Candidate, r.Baseline)
		} else {
			r.Held, r.Vacuous = c.vacuous, c.vacuous
		}
		if c.rel == info {
			r.Held = true
		}
		v.Holds = v.Holds && r.Held
		v.Checks = append(v.Checks, r)
	}
	return v
}

// experiments is the table, instantiated for o's stripe axis and wake
// latency bound.
func (o Options) experiments() []experiment {
	low, high := o.SweepStripes[0], o.SweepStripes[0]
	for _, s := range o.SweepStripes {
		low, high = min(low, s), max(high, s)
	}
	indexed := []mech.Mechanism{mech.Retry, mech.Await}
	retryOrig := []mech.Mechanism{mech.RetryOrig}
	var static, ring []harness.Knobs
	var bufStatic, ringStatic []group
	for _, s := range o.SweepStripes {
		static = append(static, harness.Knobs{Stripes: s})
		ring = append(ring, harness.Knobs{Stripes: s, Unbatched: true}, harness.Knobs{Stripes: s})
		bufStatic = append(bufStatic, group{exp: "stripe", workload: "buffer", stripes: s})
		ringStatic = append(ringStatic, group{exp: "retry-orig", workload: "origring", stripes: s})
	}
	// Start deliberately wrong (one stripe, the old global table) and let
	// the controller roam up to the best static count. The adaptive cells
	// run exactly as long as their static baselines, so the convergence
	// transient must be short: a 16-commit window converges 1 -> 64 within
	// ~100 of the ~10k commits each cell measures.
	adaptive := []harness.Knobs{{Stripes: 1, MinStripes: 1, MaxStripes: high, AdaptWindow: 16}}
	coalesced := []harness.Knobs{{}, {CoalesceCommits: coalesceK}}
	idle := harness.Knobs{CoalesceCommits: 4 * latencyBurst, CoalesceMaxDelay: o.LatencyMaxDelay}
	buf := func(exp string, stripes, k int) group {
		return group{exp: exp, workload: "buffer", stripes: stripes, coalesce: k}
	}
	orig := func(exp string, stripes int, unbatched bool, k int) group {
		return group{exp: exp, workload: "origring", stripes: stripes, unbatched: unbatched, coalesce: k}
	}
	tight := func(k int) group { return group{exp: "coalesce", workload: "tightloop", coalesce: k} }
	latency := group{exp: "latency", workload: "tightloop/idle", coalesce: idle.CoalesceCommits}
	bound := float64(o.LatencyMaxDelay + latencySlack)
	return []experiment{
		// Sharding the wakeup index makes the post-commit wakeup cheaper:
		// with one stripe every commit scans every sleeping waiter in every
		// buffer lane, with many it scans only its own lane's. reps pools
		// allocation luck — whether two lanes' words share a stripe is
		// decided by the heap layout each run draws.
		{name: "stripe", threads: []int{8},
			cells: []cellSpec{{workload: "buffer", mechs: indexed, knobs: static, reps: 4}},
			checks: []check{
				{name: "sharded scan", metric: wakeChecksPerCommit, cand: buf("stripe", high, 0), base: []group{buf("stripe", low, 0)}, rel: better},
			}},
		// The sharded Retry-Orig registry scans fewer sleepers and the
		// per-commit signal batch signals no more: a token ring of
		// Retry-Orig sleepers, where {fewest stripes, unbatched} is the
		// pre-sharding implementation. The ring cells are cheap and their
		// scan rate has metastable scheduling regimes; heavy pooling keeps
		// the verdict stable. 1200 passes x 8 workers ≈ 10k commits per cell.
		{name: "retry-orig", threads: []int{8, 16},
			cells: []cellSpec{{workload: "origring", mechs: retryOrig, knobs: ring, reps: 10, ops: 1200, quickOps: 50}},
			checks: []check{
				{name: "sharded registry scan", metric: origChecksPerCommit, cand: orig("retry-orig", high, false, 0), base: []group{orig("retry-orig", low, true, 0)}, rel: better},
				{name: "batched signals", metric: signalsPerCommit, cand: orig("retry-orig", high, false, 0), base: []group{orig("retry-orig", low, true, 0)}, rel: noWorse},
				{name: "ring throughput", metric: meanThroughput, cand: orig("retry-orig", high, false, 0), base: []group{orig("retry-orig", low, true, 0)}, rel: info},
			}},
		// Starting from one stripe, the online controller lands the
		// full-run scan cost — convergence transient included — within 10%
		// of the best static configuration of the two experiments above.
		{name: "adaptive", threads: []int{8},
			cells: []cellSpec{
				{workload: "buffer", mechs: indexed, knobs: adaptive, reps: 6},
				{workload: "origring", mechs: retryOrig, knobs: adaptive, reps: 10, ops: 1200, quickOps: 300},
			},
			checks: []check{
				{name: "buffer converged", metric: wakeChecksPerCommit, cand: buf("adaptive", 1, 0), base: bufStatic, rel: noWorse, factor: 1.10},
				{name: "origring converged", metric: origChecksPerCommit, cand: orig("adaptive", 1, false, 0), base: ringStatic, rel: noWorse, factor: 1.10},
			}},
		// Cross-commit coalescing makes a tight-loop producer's scans
		// cheaper, while the buffer and the ring — whose threads block
		// constantly, so their scans flush at the block bound — stay within
		// 10%. The cells run the engines' default stripe geometry: this
		// experiment isolates the cross-commit axis.
		{name: "coalesce", threads: []int{8},
			cells: []cellSpec{
				{workload: "tightloop", mechs: []mech.Mechanism{mech.WaitPred}, knobs: []harness.Knobs{{}, {CoalesceCommits: 2}, {CoalesceCommits: coalesceK}}, reps: 4, ops: 2000, quickOps: 200},
				{workload: "buffer", mechs: indexed, knobs: coalesced, reps: 4},
				{workload: "origring", mechs: retryOrig, knobs: coalesced, reps: 10, ops: 1200, quickOps: 50},
			},
			checks: []check{
				{name: "tightloop coalesced", metric: wakeChecksPerCommit, cand: tight(coalesceK), base: []group{tight(0)}, rel: better},
				{name: "tightloop throughput", metric: meanThroughput, cand: tight(coalesceK), base: []group{tight(0)}, rel: info},
				{name: "buffer unharmed", metric: wakeChecksPerCommit, cand: buf("coalesce", 0, coalesceK), base: []group{buf("coalesce", 0, 0)}, rel: noWorse, factor: 1.10, vacuous: true},
				{name: "origring unharmed", metric: origChecksPerCommit, cand: orig("coalesce", 0, false, coalesceK), base: []group{orig("coalesce", 0, false, 0)}, rel: noWorse, factor: 1.10, vacuous: true},
			}},
		// No waiter sleeps past the CoalesceMaxDelay age bound (plus slack)
		// while its notifier idles, at no material throughput cost. The
		// tightloop/idle producers go idle on a plain channel with wake
		// scans still pending, so only the age backstop can wake the
		// consumers: without it every cell deadlocks. A run whose consumers
		// never slept proves nothing about latency, hence the sleeps check.
		// The throughput guard compares the coalesce experiment's tight loop
		// with the prior report's.
		{name: "latency", threads: []int{8},
			cells: []cellSpec{{workload: "tightloop/idle", mechs: []mech.Mechanism{mech.WaitPred}, knobs: []harness.Knobs{idle}, reps: 3, ops: 12, quickOps: 4}},
			checks: []check{
				{name: "sleeps timed", metric: sleeps, cand: latency, rel: better},
				{name: "p99 within bound", metric: worstP99, cand: latency, value: bound, rel: noWorse},
				{name: "p50", metric: worstP50, cand: latency, value: bound, rel: info},
				{name: "max", metric: worstSleep, cand: latency, value: bound, rel: info},
				{name: "tightloop throughput kept", metric: meanThroughput, cand: tight(coalesceK), prior: true, rel: noWorse, factor: 0.90, vacuous: true},
			}},
	}
}

// ExperimentNames lists the experiment table's rows in run order.
func ExperimentNames() []string {
	var names []string
	for _, x := range (Options{}).withDefaults().experiments() {
		names = append(names, x.name)
	}
	return names
}

// selected returns the table rows o.Experiments names, in table order,
// plus every row whose cells their checks read: the adaptive verdict
// judges against the stripe and retry-orig cells, so selecting it runs
// those too. Rows only read earlier rows, so one backward pass closes
// the selection.
func (o Options) selected() ([]experiment, error) {
	table := o.experiments()
	names := ExperimentNames()
	want := map[string]bool{}
	for _, n := range o.Experiments {
		if !slices.Contains(names, n) {
			return nil, fmt.Errorf("perf: unknown experiment %q (have %s)", n, strings.Join(names, ", "))
		}
		want[n] = true
	}
	for i := len(table) - 1; i >= 0; i-- {
		if !want[table[i].name] {
			continue
		}
		for _, c := range table[i].checks {
			want[c.cand.exp] = true
			for _, g := range c.base {
				want[g.exp] = true
			}
		}
	}
	var out []experiment
	for _, x := range table {
		if want[x.name] {
			out = append(out, x)
		}
	}
	return out, nil
}
