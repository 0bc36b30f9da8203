package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number. samples is how many measurements it
// summarises (0 where it is a single reading or a ratio of counts).
type metric struct {
	name    string
	value   float64
	unit    string
	samples uint64
	note    string
}

// endToEnd and perLayer name the metrics of the final JSON line, with
// --trace 0 and --trace 1 respectively. The report table carries more.
var endToEnd = []string{"setup_s", "throughput_ops_s", "op_latency_p50_us", "op_latency_p99_us", "cpu_us_per_op"}

var perLayer = []string{
	"tm.attempts_per_op", "tm.abort_ratio", "tm.atomic_self_ns_p50", "tm.ro_commit_share",
	"engine.begin_ns_p50", "engine.read_ns_p50", "engine.reads_per_attempt", "engine.write_ns_p50",
	"engine.commit_ns_p50", "engine.commit_ns_p99", "engine.commit_abort_ratio", "engine.rollback_ns_p50",
	"engine.await_snapshot_ns_p50",
	"clock.calls_per_attempt", "clock.commit_ns_p50", "clock.shared_writes_per_commit",
	"core.postcommit_ns_p50", "core.postcommit_ns_p99", "core.postcommit_share", "core.wake_checks_per_commit",
	"core.useful_wake_ratio", "core.futile_wakeup_ratio", "core.deschedules_per_op",
	"core.block_to_wake_ns_p50", "core.block_to_wake_ns_p99",
	"sem.sleeps_per_op", "sem.sleep_to_signal_ns_p50", "sem.sleep_to_signal_ns_p99",
	"bench.trace_overhead_frac",
}

// Traced-phase buffer sizes: spans (32 bytes each) and sem sleeps.
const (
	spanCap  = 1 << 19
	sleepCap = 1 << 18
)

// sampleEvery is the traced half's sampling period, one op in every: sized
// from the untraced half's throughput so the sampled ops' spans fill about
// half the span buffer, spread over the whole phase. It is kept coprime
// with disjoint's schedule period so the samples cycle through every
// scheduled op.
func sampleEvery(opsPerSec, seconds float64, spansPerOp int) uint64 {
	n := max(1, uint64(opsPerSec*seconds*float64(spansPerOp)/(spanCap/2)))
	for gcd(n, disjointSched) != 1 {
		n++
	}
	return n
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("syncbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "handoff, batchwait, disjoint or barrier")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: an untraced and a traced half, per-layer metrics")
	spans := fs.String("spans", "", "directory to write the traced half's spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds <= 0 || *seconds > 600) {
		err = errors.New("-seconds must be in (0, 600]")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "syncbench:", err)
		return 2
	}
	// A lost wakeup would hang a client forever; fail the run instead.
	limit := min(170*time.Second, time.Duration((2**seconds+90)*float64(time.Second)))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "syncbench: %s did not finish within %v (a lost wakeup?)\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	stamp(stdout, w.name, *seed, *seconds, *traced)
	var ms []metric
	var attempted, failed uint64
	var problems []error
	if *traced == 0 {
		ph := runPhase(w, *seed, *seconds, nil)
		ms = endToEndMetrics(stdout, ph)
		attempted, failed = ph.issued()
		problems = append(problems, ph.checkErr)
	} else {
		plain := runPhase(w, *seed, *seconds/2, nil)
		tr := newTracer(sampleEvery(median(plain.throughputs()), *seconds/2, w.spansPerOp), spanCap, sleepCap)
		tph := runPhase(w, *seed, *seconds/2, tr)
		res := tr.analyze()
		ms = layerMetrics(plain, tph, res)
		a1, f1 := plain.issued()
		a2, f2 := tph.issued()
		attempted, failed = a1+a2, f1+f2
		problems = append(problems, plain.checkErr, tph.checkErr)
		if res.violations > 0 {
			problems = append(problems, fmt.Errorf("%d (op, thread) pairs have span self times summing past the op's length", res.violations))
		}
		if n := tr.lost.Load(); n > 0 {
			problems = append(problems, fmt.Errorf("%d spans did not fit the span buffer", n))
		}
		if *spans != "" {
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
			if err := res.writeSpans(path); err != nil {
				problems = append(problems, fmt.Errorf("writing spans: %w", err))
			} else {
				fmt.Fprintf(stdout, "# spans: %d ops, %d spans -> %s\n", res.ops, len(res.spans), path)
			}
		}
	}
	err = errors.Join(problems...)
	if err != nil {
		fmt.Fprintln(stdout, "# CHECK FAILED:", err)
	}
	printTable(stdout, ms)
	want := endToEnd
	if *traced == 1 {
		want = perLayer
	}
	if err := printJSON(stdout, ms, want, err == nil && failed == 0, attempted, failed); err != nil {
		fmt.Fprintln(stderr, "syncbench:", err)
		return 1
	}
	if err != nil || failed > 0 {
		return 1
	}
	return 0
}

// stamp prints the host and run identification every report carries.
func stamp(out io.Writer, workload string, seed uint64, seconds float64, traced int) {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# host: num_cpu=%d gomaxprocs=%d go=%s vcs.revision=%s vcs.modified=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, dirty)
	fmt.Fprintf(out, "# run: workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, traced)
}

// endToEndMetrics derives the end-to-end metrics of an untraced phase and
// prints each window's values to out, so a reader can see the spread the
// medians summarise.
func endToEndMetrics(out io.Writer, ph *phase) []metric {
	ops := ph.ops()
	issued, failed := ph.issued()
	lat, kept, offered := ph.windowPercentiles(func(d *client) []*sampler { return d.lat }, p50, p99)
	wake, wkept, _ := ph.windowPercentiles(func(d *client) []*sampler { return d.wake }, p50, p99)
	note := fmt.Sprintf("median of %d windows", len(ph.winNs))
	fmt.Fprintf(out, "# windows: throughput_ops_s %.6g\n# windows: op_latency_p50_us %.6g\n# windows: op_latency_p99_us %.6g\n# windows: cpu_us_per_op %.6g\n",
		ph.throughputs(), scaled(lat[0], 1e-3), scaled(lat[1], 1e-3), ph.cpuPerOp())
	ms := []metric{
		{name: "setup_s", value: median(ph.setupNs) / 1e9, unit: "s", samples: uint64(len(ph.setupNs)), note: "median of set-ups"},
		{name: "throughput_ops_s", value: median(ph.throughputs()), unit: "ops/s", samples: ops, note: note},
		{name: "op_latency_p50_us", value: median(lat[0]) / 1e3, unit: "us", samples: kept, note: fmt.Sprintf("%s; %d ops timed", note, offered)},
		{name: "op_latency_p99_us", value: median(lat[1]) / 1e3, unit: "us", samples: kept, note: fmt.Sprintf("%s; %d ops timed", note, offered)},
		{name: "cpu_us_per_op", value: median(ph.cpuPerOp()), unit: "us", samples: ops, note: note},
		{name: "allocs_per_op", value: ratio(float64(ph.mallocs), float64(ops)), unit: "objects", samples: ops},
		{name: "max_rss_mb", value: float64(ph.maxRSS) / (1 << 20), unit: "MiB", samples: 1},
		{name: "failed_ops_frac", value: ratio(float64(failed), float64(issued)), unit: "ratio", samples: issued},
	}
	if wkept > 0 {
		ms = append(ms,
			metric{name: "wake_latency_p50_us", value: median(wake[0]) / 1e3, unit: "us", samples: wkept, note: fmt.Sprintf("median of %d windows; ops that raised a wait", len(wake[0]))},
			metric{name: "wake_latency_p99_us", value: median(wake[1]) / 1e3, unit: "us", samples: wkept, note: fmt.Sprintf("median of %d windows; ops that raised a wait", len(wake[1]))})
	}
	ms = append(ms, tailMetric("op_latency", ph.pooled(func(d *client) []*sampler { return d.lat })))
	if wkept > 0 {
		ms = append(ms, tailMetric("wake_latency", ph.pooled(func(d *client) []*sampler { return d.wake })))
	}
	return ms
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// tailMetric reports the highest percentile of the whole run's pooled
// samples that still has at least ten samples beyond it.
func tailMetric(prefix string, vals []weighted) metric {
	p, ok := highestTail(len(vals))
	if !ok {
		return metric{name: prefix + "_tail_us", unit: "us", samples: uint64(len(vals)), note: "too few samples for a tail"}
	}
	return metric{name: prefix + "_tail_us", value: float64(weightedRank(vals, p)) / 1e3, unit: "us",
		samples: uint64(len(vals)), note: p.name + " of the pooled run, " + fmt.Sprint(weightedCount(vals)) + " ops represented"}
}

// layerMetrics derives the per-layer metrics of a traced phase, plus the
// tracing overhead against the untraced phase before it.
func layerMetrics(plain, traced *phase, res *traceResult) []metric {
	tr := traced.tr
	n := tr.counters()
	st := tr.stats()
	issued, _ := traced.issued()
	ops := float64(issued)
	attempts := float64(st["commits"] + st["ro_commits"] + st["aborts"])
	commits := float64(st["commits"])
	calls, clockNs := tr.clockCalls()
	sleeps := tr.sleeps[:min(tr.nsleeps.Load(), int64(len(tr.sleeps)))]
	sleepNs := make([]int64, len(sleeps))
	for i, s := range sleeps {
		sleepNs[i] = s.end - s.start
	}
	pct := func(name string, xs []int64, p percentile) metric {
		return metric{name: name, value: float64(nearestRank(sortedCopy(xs), p)), unit: "ns", samples: uint64(len(xs))}
	}
	d := &res.durations
	untraced, withTrace := median(plain.throughputs()), median(traced.throughputs())
	return []metric{
		ratioOf("tm.attempts_per_op", "attempts/op", attempts, ops),
		ratioOf("tm.abort_ratio", "ratio", float64(st["aborts"]), attempts),
		pct("tm.atomic_self_ns_p50", res.opSelf, p50),
		ratioOf("tm.ro_commit_share", "ratio", float64(st["ro_commits"]), float64(st["commits"]+st["ro_commits"])),
		pct("engine.begin_ns_p50", d[kBegin], p50),
		pct("engine.read_ns_p50", d[kRead], p50),
		ratioOf("engine.reads_per_attempt", "reads/attempt", float64(n[cRead]), float64(n[cBegin])),
		pct("engine.write_ns_p50", d[kWrite], p50),
		pct("engine.commit_ns_p50", d[kCommit], p50),
		pct("engine.commit_ns_p99", d[kCommit], p99),
		ratioOf("engine.commit_abort_ratio", "ratio", float64(n[cCommitAbort]), float64(n[cCommit])),
		pct("engine.rollback_ns_p50", d[kRollback], p50),
		pct("engine.await_snapshot_ns_p50", d[kAwait], p50),
		ratioOf("clock.calls_per_attempt", "calls/attempt", float64(calls), float64(n[cBegin])),
		pct("clock.commit_ns_p50", clockNs, p50),
		ratioOf("clock.shared_writes_per_commit", "writes/commit", float64(st["clock_advances"]+st["clock_cas_retries"]), commits),
		pct("core.postcommit_ns_p50", d[kPostCommit], p50),
		pct("core.postcommit_ns_p99", d[kPostCommit], p99),
		ratioOf("core.postcommit_share", "ratio", float64(res.postTotal), float64(res.opTotal)),
		ratioOf("core.wake_checks_per_commit", "checks/commit", float64(st["wake_checks"]), commits),
		ratioOf("core.useful_wake_ratio", "ratio", float64(st["wakeups"]), float64(st["wake_checks"])),
		ratioOf("core.futile_wakeup_ratio", "ratio", float64(n[cFutile]), float64(n[cWake])),
		ratioOf("core.deschedules_per_op", "count/op", float64(st["deschedules"]), ops),
		pct("core.block_to_wake_ns_p50", d[kBlock], p50),
		pct("core.block_to_wake_ns_p99", d[kBlock], p99),
		ratioOf("sem.sleeps_per_op", "count/op", float64(tr.nsleeps.Load()), ops),
		pct("sem.sleep_to_signal_ns_p50", sleepNs, p50),
		pct("sem.sleep_to_signal_ns_p99", sleepNs, p99),
		{name: "bench.trace_overhead_frac", value: ratio(untraced-withTrace, untraced), unit: "ratio",
			samples: uint64(len(plain.winNs) + len(traced.winNs)),
			note:    fmt.Sprintf("untraced %.6g ops/s, traced %.6g ops/s", untraced, withTrace)},
	}
}

// ratioOf is a ratio metric reported with its base: samples is the
// denominator, and the note names it.
func ratioOf(name, unit string, num, den float64) metric {
	return metric{name: name, value: ratio(num, den), unit: unit, samples: uint64(den), note: fmt.Sprintf("%.0f / %.0f", num, den)}
}

func printTable(out io.Writer, ms []metric) {
	fmt.Fprintf(out, "# %-32s %16s %-13s %12s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range ms {
		fmt.Fprintf(out, "  %-32s %16.6g %-13s %12d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
}

// printJSON prints the final result line with the metrics named in want.
func printJSON(out io.Writer, ms []metric, want []string, correct bool, attempted, failed uint64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	by := make(map[string]metric, len(ms))
	for _, m := range ms {
		by[m.name] = m
	}
	metrics := make(map[string]value, len(want))
	for _, name := range want {
		m, ok := by[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
