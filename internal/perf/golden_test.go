package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyField maps one field of a tmsync-bench/1 verdict object to the
// experiment table's output: part of the named check (candidate,
// baseline, held, or the stripe count that won a best-of baseline), or
// the verdict's threads or holds when check is empty.
type legacyField struct{ key, check, part string }

// legacyVerdicts lists, per tmsync-bench/1 verdict key, the experiment
// that replaced it and how its fields map.
var legacyVerdicts = map[string]struct {
	exp    string
	fields []legacyField
}{
	"stripe_verdict": {"stripe", []legacyField{
		{"threads", "", "threads"},
		{"wakeups_per_commit_low_stripes", "sharded scan", "baseline"},
		{"wakeups_per_commit_high_stripes", "sharded scan", "candidate"},
		{"improved", "", "holds"},
	}},
	"orig_verdict": {"retry-orig", []legacyField{
		{"threads", "", "threads"},
		{"orig_checks_per_commit_baseline", "sharded registry scan", "baseline"},
		{"orig_checks_per_commit_candidate", "sharded registry scan", "candidate"},
		{"checks_improved", "sharded registry scan", "held"},
		{"signals_per_commit_baseline", "batched signals", "baseline"},
		{"signals_per_commit_candidate", "batched signals", "candidate"},
		{"signals_improved", "batched signals", "held"},
		{"throughput_baseline", "ring throughput", "baseline"},
		{"throughput_candidate", "ring throughput", "candidate"},
		{"improved", "", "holds"},
	}},
	"adaptive_verdict": {"adaptive", []legacyField{
		{"threads", "", "threads"},
		{"buffer_best_static_stripes", "buffer converged", "stripes"},
		{"buffer_wake_checks_per_commit_best_static", "buffer converged", "baseline"},
		{"buffer_wake_checks_per_commit_adaptive", "buffer converged", "candidate"},
		{"buffer_within_10pct", "buffer converged", "held"},
		{"origring_best_static_stripes", "origring converged", "stripes"},
		{"origring_checks_per_commit_best_static", "origring converged", "baseline"},
		{"origring_checks_per_commit_adaptive", "origring converged", "candidate"},
		{"origring_within_10pct", "origring converged", "held"},
		{"converged", "", "holds"},
	}},
	"coalesce_verdict": {"coalesce", []legacyField{
		{"threads", "", "threads"},
		{"tightloop_wake_checks_per_commit_off", "tightloop coalesced", "baseline"},
		{"tightloop_wake_checks_per_commit_on", "tightloop coalesced", "candidate"},
		{"tightloop_improved", "tightloop coalesced", "held"},
		{"tightloop_throughput_off", "tightloop throughput", "baseline"},
		{"tightloop_throughput_on", "tightloop throughput", "candidate"},
		{"buffer_wake_checks_per_commit_off", "buffer unharmed", "baseline"},
		{"buffer_wake_checks_per_commit_on", "buffer unharmed", "candidate"},
		{"buffer_no_regression", "buffer unharmed", "held"},
		{"origring_checks_per_commit_off", "origring unharmed", "baseline"},
		{"origring_checks_per_commit_on", "origring unharmed", "candidate"},
		{"origring_no_regression", "origring unharmed", "held"},
		{"improved", "", "holds"},
	}},
	"latency_verdict": {"latency", []legacyField{
		{"threads", "", "threads"},
		{"sleeps", "sleeps timed", "candidate"},
		{"p50_ns", "p50", "candidate"},
		{"p99_ns", "p99 within bound", "candidate"},
		{"max_ns", "max", "candidate"},
		// within_bound was "sleeps were timed and p99 <= bound"; every
		// committed report has it true, so both checks must hold.
		{"within_bound", "p99 within bound", "held"},
		{"within_bound", "sleeps timed", "held"},
		{"tightloop_throughput_prior", "tightloop throughput kept", "baseline"},
		{"tightloop_throughput", "tightloop throughput kept", "candidate"},
		{"throughput_within_10pct", "tightloop throughput kept", "held"},
		{"holds", "", "holds"},
	}},
}

// TestGoldenVerdicts recomputes every verdict of the committed
// tmsync-bench/1 reports through the experiment table and requires each
// stored verdict's booleans and numbers back, to 1e-9 relative. The
// latency verdict's throughput guard reads the report the run diffed
// against: BENCH_PR5 for BENCH_PR6, BENCH_PR6 for BENCH_PR9 — where the
// guard fails (4.95M vs 7.25M tight-loop commits/s) and so does the
// verdict.
func TestGoldenVerdicts(t *testing.T) {
	priors := map[string]string{"BENCH_PR6.json": "BENCH_PR5.json", "BENCH_PR9.json": "BENCH_PR6.json"}
	judged := 0
	for _, name := range []string{"BENCH_PR2.json", "BENCH_PR3.json", "BENCH_PR4.json", "BENCH_PR5.json", "BENCH_PR6.json", "BENCH_PR9.json"} {
		path := filepath.Join("..", "..", name)
		rep, err := LoadReport(path)
		if err != nil {
			t.Fatal(err)
		}
		var prior *Report
		if p := priors[name]; p != "" {
			if prior, err = LoadReport(filepath.Join("..", "..", p)); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var stored map[string]json.RawMessage
		if err := json.Unmarshal(data, &stored); err != nil {
			t.Fatal(err)
		}
		verdicts := map[string]Verdict{}
		for _, x := range (Options{SweepStripes: rep.SweepStripes}).withDefaults().experiments() {
			for _, p := range rep.Points {
				if p.Experiment == x.name {
					verdicts[x.name] = x.judge(rep, prior)
					break
				}
			}
		}
		for key, raw := range stored {
			if !strings.HasSuffix(key, "_verdict") || key == "clock_verdict" {
				continue // the clock experiment was deleted with its modes
			}
			legacy, ok := legacyVerdicts[key]
			if !ok {
				t.Fatalf("%s: unmapped verdict %s", name, key)
			}
			v, ok := verdicts[legacy.exp]
			if !ok {
				t.Fatalf("%s: %s stored but no %s points loaded", name, key, legacy.exp)
			}
			delete(verdicts, legacy.exp)
			var fields map[string]any
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			for _, f := range legacy.fields {
				want, ok := fields[f.key]
				if !ok {
					t.Errorf("%s %s: no stored %s", name, key, f.key)
					continue
				}
				got, err := legacyPart(v, f)
				if err != nil {
					t.Errorf("%s %s: %v", name, key, err)
					continue
				}
				if !sameValue(got, want) {
					t.Errorf("%s %s.%s: recomputed %v, stored %v", name, key, f.key, got, want)
				}
			}
			judged++
		}
		for exp := range verdicts {
			t.Errorf("%s: %s verdict recomputed but none stored", name, exp)
		}
	}
	// 1 + 2 + 3 + 4 + 5 + 5 verdicts across BENCH_PR2..9.
	if judged != 20 {
		t.Errorf("judged %d stored verdicts, want 20", judged)
	}
}

// legacyPart extracts the value a legacyField names from v.
func legacyPart(v Verdict, f legacyField) (any, error) {
	switch {
	case f.part == "threads":
		return float64(v.Threads), nil
	case f.part == "holds":
		return v.Holds, nil
	}
	for _, c := range v.Checks {
		if c.Name != f.check {
			continue
		}
		switch f.part {
		case "candidate":
			return c.Candidate, nil
		case "baseline":
			return c.Baseline, nil
		case "held":
			return c.Held, nil
		case "stripes":
			var s float64
			_, err := fmt.Sscanf(c.BaselineCells[strings.LastIndex(c.BaselineCells, "stripes="):], "stripes=%g", &s)
			return s, err
		}
	}
	return nil, fmt.Errorf("no %s of check %q", f.part, f.check)
}

// sameValue compares a recomputed value with a stored JSON one: booleans
// exactly, numbers to 1e-9 relative.
func sameValue(got, want any) bool {
	g, gok := got.(float64)
	w, wok := want.(float64)
	if !gok || !wok {
		return got == want
	}
	return math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))
}
