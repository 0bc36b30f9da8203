package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	for _, tc := range []struct {
		xs   []int
		p    percentile
		want int
	}{
		{hundred, p50, 50},
		{hundred, p99, 99}, // ceil(0.99·100) = 99, not 100
		{hundred, percentile{"p100", 1_000_000}, 100},
		{hundred, percentile{"p0.1", 1_000}, 1},
		{[]int{7}, p99, 7},
		{[]int{1, 2, 3}, p50, 2},
		{[]int{1, 2, 3, 4}, p50, 2},
		{nil, p50, 0},
	} {
		if got := nearestRank(tc.xs, tc.p); got != tc.want {
			t.Errorf("nearestRank(%d values, %s) = %d, want %d", len(tc.xs), tc.p.name, got, tc.want)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // "" when no percentile has ten samples beyond it
	}{
		{19, ""},
		{99, ""},     // p90 is rank 90: only 9 beyond
		{100, "p90"}, // rank 90: 10 beyond
		{999, "p90"},
		{1000, "p99"}, // rank 990: 10 beyond; p99.9 would leave 1
		{9999, "p99"},
		{10_000, "p99.9"},
		{1_000_000, "p99.999"},
	} {
		p, ok := highestTail(tc.n)
		got := ""
		if ok {
			got = p.name
		}
		if got != tc.want {
			t.Errorf("highestTail(%d) = %q, want %q", tc.n, got, tc.want)
		}
		if ok && tc.n-rank(tc.n, p) < 10 {
			t.Errorf("highestTail(%d) = %s leaves %d samples beyond it", tc.n, p.name, tc.n-rank(tc.n, p))
		}
	}
}

func TestWeightedRank(t *testing.T) {
	var unit []weighted
	var plain []uint32
	for v := uint32(1); v <= 1000; v++ {
		unit = append(unit, weighted{v, 1})
		plain = append(plain, v)
	}
	for _, p := range append([]percentile{p50}, tailLadder...) {
		if got, want := weightedRank(unit, p), nearestRank(plain, p); got != want {
			t.Errorf("unit weights, %s: got %d, want nearestRank's %d", p.name, got, want)
		}
	}
	// One client's 10 values each stand for 9 ops; another's 10 stand for
	// one each: the median must fall among the heavy client's values.
	var mixed []weighted
	for i := uint32(0); i < 10; i++ {
		mixed = append(mixed, weighted{100 + i, 9}, weighted{i, 1})
	}
	sortWeighted(mixed)
	if got := weightedRank(mixed, p50); got < 100 {
		t.Errorf("weighted median = %d, want one of the weight-9 values (>= 100)", got)
	}
	if got := weightedCount(mixed); got != 100 {
		t.Errorf("weightedCount = %d, want 100", got)
	}
}

func TestSamplerStaysEvenlySpread(t *testing.T) {
	s := newSampler(1024)
	const n = 100_000
	for i := int64(0); i < n; i++ {
		s.add(i)
	}
	if s.count != n {
		t.Fatalf("count = %d, want %d", s.count, n)
	}
	vals := s.values()
	if len(vals) < 512 || len(vals) > 1024 {
		t.Fatalf("kept %d values, want between 512 and 1024", len(vals))
	}
	for i, v := range vals {
		if want := uint32(uint64(i) * s.stride); v != want {
			t.Fatalf("value %d = %d, want %d (stride %d)", i, v, want, s.stride)
		}
	}
	if last := uint64(vals[len(vals)-1]); last+s.stride < n-s.stride {
		t.Errorf("last kept value %d leaves the stream's tail unsampled (stride %d)", last, s.stride)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		children []interval
		want     int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		// Two threads' children overlap: [10,30] ∪ [20,50] covers 40, not 50.
		{[]interval{{20, 50}, {10, 30}, {70, 80}}, 50},
		// Nested children count once; one overhangs the parent's end.
		{[]interval{{10, 60}, {20, 30}, {90, 120}}, 40},
		{[]interval{{-5, 200}}, 0},
		{[]interval{{100, 110}}, 100}, // touches only the end
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("selfTime(%v, %v) = %d, want %d", parent, tc.children, got, tc.want)
		}
	}
}

func TestRatioWithBase(t *testing.T) {
	m := ratioOf("core.useful_wake_ratio", "ratio", 3, 4)
	if m.value != 0.75 || m.samples != 4 || m.note != "3 / 4" {
		t.Errorf("ratioOf(3, 4) = %+v, want value 0.75 with base 4 noted", m)
	}
	zero := ratioOf("core.useful_wake_ratio", "ratio", 0, 0)
	if zero.value != 0 || zero.samples != 0 || zero.note != "0 / 0" {
		t.Errorf("ratioOf(0, 0) = %+v, want value 0 with base 0", zero)
	}
	var buf bytes.Buffer
	printTable(&buf, []metric{m})
	if line := buf.String(); !strings.Contains(line, "ratio") || !strings.Contains(line, " 4 ") || !strings.Contains(line, "3 / 4") {
		t.Errorf("table line %q does not show the ratio's base", line)
	}
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runShort(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q is not the result object: %v", lines[len(lines)-1], err)
	}
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return out.String(), r
}

// tableUnit returns the unit the report table gives metric name, or "".
func tableUnit(table, name string) string {
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == name {
			return f[2]
		}
	}
	return ""
}

// A short run of each workload, untraced and traced, prints every named
// metric with its unit, passes its self-checks, and (traced) writes its
// spans.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	tableOnly := []string{"allocs_per_op", "max_rss_mb", "failed_ops_frac", "op_latency_tail_us"}
	waits := map[string]bool{"handoff": true, "batchwait": true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			table, r := runShort(t, "-workload", w.name, "-seed", "7", "-seconds", "0.4", "-trace", "0")
			if !strings.Contains(table, "# host: num_cpu=") || !strings.Contains(table, "seed=7") {
				t.Errorf("report lacks the host/run stamp:\n%s", table)
			}
			checkJSON(t, r, endToEnd)
			names := append(slices.Clone(endToEnd), tableOnly...)
			if waits[w.name] {
				names = append(names, "wake_latency_p50_us", "wake_latency_p99_us", "wake_latency_tail_us")
			}
			for _, name := range names {
				if tableUnit(table, name) == "" {
					t.Errorf("table lacks %s with a unit:\n%s", name, table)
				}
			}

			dir := t.TempDir()
			table, r = runShort(t, "-workload", w.name, "-seed", "7", "-seconds", "0.8", "-trace", "1", "-spans", dir)
			checkJSON(t, r, perLayer)
			for _, name := range perLayer {
				if tableUnit(table, name) == "" {
					t.Errorf("traced table lacks %s with a unit", name)
				}
			}
			if w.name == "disjoint" {
				for _, name := range []string{"core.wake_checks_per_commit", "core.useful_wake_ratio", "core.deschedules_per_op", "sem.sleeps_per_op"} {
					if v := r.Metrics[name].Value; v != 0 {
						t.Errorf("disjoint: %s = %g, want 0 (nothing waits)", name, v)
					}
				}
			}
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-seed7.tsv", w.name)))
			if err != nil {
				t.Fatal(err)
			}
			if spans := strings.Count(string(data), "\n") - 1; spans < 1 || !strings.Contains(string(data), "\top\t") {
				t.Errorf("span file has %d spans and no op span", spans)
			}
		})
	}
}

func checkJSON(t *testing.T, r result, want []string) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("JSON has %d metrics, want exactly %d", len(r.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := r.Metrics[name]
		if !ok || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("JSON metric %s = %+v, present=%v", name, m, ok)
		}
	}
}

// BENCHMARK.json at the repository root names workloads this command runs
// and exactly the metrics it prints in its result line.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, name := range names(spec.Workloads) {
		if _, err := workloadByName(name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, want %v", c.what, c.got, c.want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "handoff", "-trace", "2"},
		{"-workload", "handoff", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run %v = exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}
