package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// schemaV1 is the layout before the experiment table: one array of
// points per experiment, each beside its own verdict object.
const schemaV1 = "tmsync-bench/1"

// v1Sweeps maps a tmsync-bench/1 report's per-experiment point arrays to
// experiment names.
var v1Sweeps = []struct{ key, exp string }{
	{"stripe_sweep", "stripe"},
	{"orig_sweep", "retry-orig"},
	{"adaptive_sweep", "adaptive"},
	{"coalesce_sweep", "coalesce"},
	{"latency_sweep", "latency"},
}

// LoadReport reads a previously emitted benchmark report for trajectory
// diffing and prior-baseline checks. A tmsync-bench/1 file (e.g. the
// committed BENCH_PR2..9.json) loads with its per-experiment arrays
// folded into Points, tagged; its verdict objects are not read.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	switch rep.Schema {
	case Schema:
	case schemaV1:
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("perf: %s: %w", path, err)
		}
		for _, s := range v1Sweeps {
			var pts []Point
			if raw[s.key] != nil {
				if err := json.Unmarshal(raw[s.key], &pts); err != nil {
					return nil, fmt.Errorf("perf: %s: %s: %w", path, s.key, err)
				}
			}
			for i := range pts {
				pts[i].Experiment = s.exp
			}
			rep.Points = append(rep.Points, pts...)
		}
	default:
		return nil, fmt.Errorf("perf: %s has schema %q, want %q or %q", path, rep.Schema, Schema, schemaV1)
	}
	return &rep, nil
}

// cellKey identifies a comparable cell across two reports' main sweeps.
type cellKey struct {
	workload string
	engine   string
	mech     string
	threads  int
}

// DiffReports compares the post-commit wakeup costs of two reports —
// wake checks per commit and delivered signals per commit, aggregated
// per workload × engine × mechanism × thread-count cell over the main
// sweep — and renders one line per cell present in both, followed by an
// aggregate line. It is the CI trajectory check between BENCH_PR<N>
// artifacts: informative, not pass/fail, since both quantities move with
// scheduling noise; the committed verdicts carry the pass/fail claims.
func DiffReports(old, cur *Report) []string {
	type sums struct {
		checks, wakeups, commits uint64
	}
	accumulate := func(points []Point) map[cellKey]*sums {
		m := make(map[cellKey]*sums)
		for _, p := range points {
			if p.Experiment != "" || p.Commits == 0 {
				continue
			}
			k := cellKey{p.Workload, p.Engine, p.Mech, p.Threads}
			s := m[k]
			if s == nil {
				s = &sums{}
				m[k] = s
			}
			s.checks += p.WakeChecks
			s.wakeups += p.Wakeups
			s.commits += p.Commits
		}
		return m
	}
	oldCells := accumulate(old.Points)
	curCells := accumulate(cur.Points)

	keys := make([]cellKey, 0, len(curCells))
	for k := range curCells {
		if _, ok := oldCells[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.engine != b.engine {
			return a.engine < b.engine
		}
		if a.mech != b.mech {
			return a.mech < b.mech
		}
		return a.threads < b.threads
	})

	rate := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var out []string
	var aggOld, aggCur sums
	for _, k := range keys {
		o, c := oldCells[k], curCells[k]
		aggOld.checks += o.checks
		aggOld.wakeups += o.wakeups
		aggOld.commits += o.commits
		aggCur.checks += c.checks
		aggCur.wakeups += c.wakeups
		aggCur.commits += c.commits
		out = append(out, fmt.Sprintf(
			"%-20s %-7s %-10s t=%-2d wake-checks/commit %.3f -> %.3f  signals/commit %.3f -> %.3f",
			k.workload, k.engine, k.mech, k.threads,
			rate(o.checks, o.commits), rate(c.checks, c.commits),
			rate(o.wakeups, o.commits), rate(c.wakeups, c.commits)))
	}
	out = append(out, fmt.Sprintf(
		"TOTAL over %d shared cells: wake-checks/commit %.3f -> %.3f  signals/commit %.3f -> %.3f",
		len(keys),
		rate(aggOld.checks, aggOld.commits), rate(aggCur.checks, aggCur.commits),
		rate(aggOld.wakeups, aggOld.commits), rate(aggCur.wakeups, aggCur.commits)))
	return out
}
