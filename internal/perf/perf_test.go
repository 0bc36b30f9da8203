package perf

import (
	"encoding/json"
	"testing"

	"tmsync/internal/mech"
)

// TestSweepSmoke runs a tiny sweep over every engine and checks the
// report's shape: full axis coverage, valid JSON, sane counters.
func TestSweepSmoke(t *testing.T) {
	rep, err := Run(Options{
		Seed:      1,
		Threads:   []int{1, 2},
		Workloads: []string{"buffer", "parsec/dedup"},
		BufferOps: 50,
		Scale:     1,
		Baseline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
	engines := map[string]bool{}
	mechs := map[string]bool{}
	for _, p := range rep.Points {
		engines[p.Engine] = true
		mechs[p.Mech] = true
		if p.Seconds < 0 {
			t.Errorf("%s %s/%s: negative duration", p.Workload, p.Engine, p.Mech)
		}
		if p.Engine != "none" && p.Commits == 0 && p.ROCommits == 0 {
			t.Errorf("%s %s/%s t=%d: no transactions committed", p.Workload, p.Engine, p.Mech, p.Threads)
		}
	}
	for _, e := range []string{"eager", "lazy", "htm", "hybrid", "none"} {
		if !engines[e] {
			t.Errorf("engine %s missing from the sweep", e)
		}
	}
	for _, m := range mech.TM {
		if !mechs[string(m)] {
			t.Errorf("mechanism %s missing from the sweep", m)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip through JSON: %v", err)
	}
	if len(back.Points) != len(rep.Points) {
		t.Fatalf("round-trip lost points: %d != %d", len(back.Points), len(rep.Points))
	}
}

// TestUnknownWorkloadRejectedUpFront: a typo in a workload name must fail
// the run immediately, not silently produce an empty report (CI would
// upload it as the trajectory artifact).
func TestUnknownWorkloadRejectedUpFront(t *testing.T) {
	for _, w := range []string{"parsec/raytrcae", "bufffer"} {
		if _, err := Run(Options{Workloads: []string{w}}); err == nil {
			t.Errorf("workload %q accepted; want an error", w)
		}
	}
	if _, err := Run(Options{SweepStripes: []int{3}}); err == nil {
		t.Error("non-power-of-two sweep stripes accepted; want an error")
	}
	if _, err := Run(Options{Experiments: []string{"stripes"}}); err == nil {
		t.Error("unknown experiment accepted; want an error")
	}
}

// TestParsecBaselineHasThroughput: the Pthreads baseline rows must carry a
// comparable throughput metric (inverse wall time), not a meaningless 0.
func TestParsecBaselineHasThroughput(t *testing.T) {
	rep, err := Run(Options{
		Threads:   []int{2},
		Engines:   []string{"eager"},
		Mechs:     []mech.Mechanism{mech.Retry},
		Workloads: []string{"parsec/x264"},
		Scale:     1,
		Baseline:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.Throughput <= 0 {
			t.Errorf("%s %s/%s: throughput %v, want > 0", p.Workload, p.Engine, p.Mech, p.Throughput)
		}
	}
}

// TestRetryOrigExcludedFromHardwareEngines: the sweep must not try to run
// the metadata-based retry on engines without STM metadata (it would
// panic).
func TestRetryOrigExcludedFromHardwareEngines(t *testing.T) {
	rep, err := Run(Options{
		Seed:      1,
		Threads:   []int{2},
		Engines:   []string{"htm", "hybrid"},
		Mechs:     []mech.Mechanism{mech.RetryOrig, mech.Retry},
		Workloads: []string{"buffer"},
		BufferOps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.Mech == string(mech.RetryOrig) {
			t.Errorf("retry-orig scheduled on %s", p.Engine)
		}
	}
}

// verdictOf returns the named experiment's verdict and the named check
// within it, failing the test when either is missing.
func verdictOf(t *testing.T, rep *Report, exp, check string) (Verdict, Check) {
	t.Helper()
	for _, v := range rep.Verdicts {
		if v.Name != exp {
			continue
		}
		for _, c := range v.Checks {
			if c.Name == check {
				return v, c
			}
		}
		t.Fatalf("%s verdict has no %q check: %+v", exp, check, v)
	}
	t.Fatalf("run produced no %s verdict", exp)
	return Verdict{}, Check{}
}

// TestOrigSweepReducesRegistryScan is the sharded Retry-Orig registry's
// acceptance criterion as a regression test: on the token ring at 8
// goroutines, the 64-shard registry must examine fewer sleeping entries
// per commit than the single-shard (global, signal-at-claim) baseline.
// The effect is structural: with one shard every hand-off commit scans
// every sleeping worker in the ring; with 64 shards it scans only the
// entries registered on the stripes its two written slots cover.
func TestOrigSweepReducesRegistryScan(t *testing.T) {
	rep, err := Run(Options{
		Seed:         1,
		Threads:      []int{2},
		Engines:      []string{"eager", "lazy"},
		Mechs:        []mech.Mechanism{mech.Retry},
		Workloads:    []string{"buffer"},
		BufferOps:    20,
		Experiments:  []string{"retry-orig"},
		Quick:        true,
		SweepStripes: []int{1, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := 0
	for _, p := range rep.Points {
		if p.Experiment != "retry-orig" || p.Threads != 8 {
			continue
		}
		ring++
		if p.Deschedules == 0 {
			t.Errorf("origring %s stripes=%d unbatched=%v: ring never slept", p.Engine, p.Stripes, p.Unbatched)
		}
		if p.Unbatched && p.BatchedSignals != 0 {
			t.Errorf("origring %s stripes=%d: unbatched point reports %d batched signals", p.Engine, p.Stripes, p.BatchedSignals)
		}
	}
	if ring != 80 { // 2 engines × 2 stripe counts × {batched, unbatched} × 10 pooled reps
		t.Fatalf("retry-orig experiment has %d points at 8 goroutines, want 80", ring)
	}
	v, c := verdictOf(t, rep, "retry-orig", "sharded registry scan")
	if v.Threads != 8 {
		t.Fatalf("verdict at %d threads, want 8", v.Threads)
	}
	if c.Baseline == 0 {
		t.Fatalf("single-shard baseline measured no registry checks at all: %+v", c)
	}
	if !c.Held {
		t.Errorf("registry checks per commit did not improve: baseline %.4f vs sharded %.4f", c.Baseline, c.Candidate)
	}
}

// TestDiffReportsSharedCells: the trajectory diff must line up cells by
// workload × engine × mechanism × threads and always end with the
// aggregate line.
func TestDiffReportsSharedCells(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Options{
			Seed:      1,
			Threads:   []int{2},
			Engines:   []string{"eager"},
			Mechs:     []mech.Mechanism{mech.Retry},
			Workloads: []string{"buffer"},
			BufferOps: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	old, cur := run(), run()
	lines := DiffReports(old, cur)
	if len(lines) != 2 {
		t.Fatalf("diff of single-cell reports has %d lines, want cell + total:\n%v", len(lines), lines)
	}
}

// TestCoalesceSweepReducesTightloopScan pins the coalesce experiment's
// machinery on a small configuration: the tight-loop producer workload
// must pay measurably fewer wake checks per commit with the scans
// coalesced, the workload's token-conservation self-check must hold, and
// the verdict must carry both sides.
func TestCoalesceSweepReducesTightloopScan(t *testing.T) {
	rep, err := Run(Options{
		Seed:        1,
		Threads:     []int{1},
		Engines:     []string{"eager", "lazy"},
		Mechs:       []mech.Mechanism{mech.Retry},
		Workloads:   []string{"buffer"},
		BufferOps:   50,
		Experiments: []string{"coalesce"},
		Quick:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tight := 0
	for _, p := range rep.Points {
		if p.Workload != "tightloop" {
			continue
		}
		tight++
		if p.Commits == 0 {
			t.Errorf("tightloop %s coalesce=%d: no commits", p.Engine, p.Coalesce)
		}
		if p.Coalesce > 0 && p.CoalescedScans == 0 {
			t.Errorf("tightloop %s coalesce=%d: no scans were deferred", p.Engine, p.Coalesce)
		}
	}
	if tight == 0 {
		t.Fatal("coalesce experiment produced no tightloop points")
	}
	_, c := verdictOf(t, rep, "coalesce", "tightloop coalesced")
	if c.Baseline == 0 {
		t.Fatalf("uncoalesced tightloop measured no wake checks at all: %+v", c)
	}
	if !c.Held {
		t.Errorf("tightloop wake checks per commit did not improve: %.4f off vs %.4f coalesced", c.Baseline, c.Candidate)
	}
}

// TestStripeSweepReducesWakeScan is the sharded wakeup index's acceptance
// criterion as a regression test: on the lane-partitioned bounded buffer
// at 8 goroutines, the 64-stripe wakeup index must visit fewer waiters
// per commit than the 1-stripe (global) scan. The effect is structural —
// with one stripe every commit scans every sleeping waiter in every lane,
// with 64 stripes it scans only its own lane's — so the inequality holds
// far from the noise floor.
func TestStripeSweepReducesWakeScan(t *testing.T) {
	ops := 2000
	if testing.Short() {
		ops = 500
	}
	rep, err := Run(Options{
		Seed:         1,
		Threads:      []int{1},
		Mechs:        []mech.Mechanism{mech.Retry, mech.Await},
		Workloads:    []string{"buffer"},
		BufferOps:    ops,
		Experiments:  []string{"stripe"},
		SweepStripes: []int{1, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, c := verdictOf(t, rep, "stripe", "sharded scan")
	if c.Baseline == 0 {
		t.Fatalf("1-stripe sweep measured no wakeup checks at all (commits missing?): %+v", c)
	}
	if !c.Held {
		t.Errorf("wakeup checks per commit did not improve: %.4f @ %s vs %.4f @ %s",
			c.Baseline, c.BaselineCells, c.Candidate, c.CandidateCells)
	}
}
