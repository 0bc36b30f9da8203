// Command tmbench is the seeded benchmark pipeline: it sweeps every TM
// engine × condition-synchronization mechanism over the repository's
// workloads (lane-partitioned bounded buffer + the eight PARSEC
// concurrency skeletons) across a goroutine ladder, runs a bounded-buffer
// stripe sweep (1 stripe versus 64) to measure the post-commit wakeup
// cost the sharded orec table removes, runs the Retry-Orig contention
// sweep (a token ring of Retry-Orig sleepers at 8 and 16 goroutines,
// sharded/global × batched/unbatched) to measure the registry-scan and
// signal-delivery cost the sharded registry and the per-commit signal
// batch remove, runs the adaptive-vs-static sweep (the same wakeup-bound
// cells with the online stripe controller enabled and a deliberately
// wrong one-stripe start, judged against the best static configuration),
// runs the cross-commit coalescing sweep (the tight-loop producer workload
// at CoalesceCommits 0/2/8 plus buffer and Retry-Orig regression guards),
// runs the wake-latency sweep (the tightloop/idle workload, whose
// producers go idle on a plain channel with wake scans still pending so
// only the CoalesceMaxDelay age backstop can wake the sleeping consumers;
// p99 sleep-to-signal latency must land within the bound plus slack),
// and writes one machine-readable JSON report (schema
// tmsync-bench/1; see README "Benchmark pipeline").
//
// Usage:
//
//	go run ./cmd/tmbench -seed 1 -threads 1,2,4,8          # full sweep -> BENCH_PR9.json
//	go run ./cmd/tmbench -quick -out /tmp/bench.json       # reduced ops (CI, smoke)
//	go run ./cmd/tmbench -workloads buffer -mechs retry    # narrow the axes
//	go run ./cmd/tmbench -diff BENCH_PR6.json              # trajectory diff vs a prior report
//	go run ./cmd/tmbench -max-delay 10ms                   # tighter wake-latency bound
//
// The trajectory diff defaults to the previous PR's committed report and
// is skipped with a note when that file is absent; an explicitly named
// -diff report that cannot be loaded is fatal.
//
// Exit status is non-zero if any workload self-check fails (a PARSEC
// checksum deviating from its sequential reference, or ring-token
// conservation breaking in the Retry-Orig sweep) or the report cannot be
// written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tmsync/internal/mech"
	"tmsync/internal/perf"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed for produced value streams (recorded in the report)")
	threadsFlag := flag.String("threads", "1,2,4,8", "comma-separated goroutine counts")
	enginesFlag := flag.String("engines", "", "comma-separated engines (default: all four)")
	mechsFlag := flag.String("mechs", "", "comma-separated mechanisms (default: all TM mechanisms)")
	workloadsFlag := flag.String("workloads", "", "comma-separated workloads (default: buffer + all parsec/<name>)")
	ops := flag.Int("ops", 0, "bounded-buffer operations per worker (0 = default)")
	bufCap := flag.Int("cap", 0, "bounded-buffer capacity per lane (0 = default)")
	scale := flag.Int("scale", 0, "PARSEC workload scale (0 = default)")
	trials := flag.Int("trials", 1, "trials per cell; each is one report point")
	sweepFlag := flag.String("sweep-stripes", "1,64", "stripe counts for the bounded-buffer stripe sweep and the Retry-Orig sweep")
	origThreadsFlag := flag.String("orig-threads", "8,16", "goroutine counts for the Retry-Orig contention sweep (empty = skip)")
	origPasses := flag.Int("orig-passes", 0, "token hand-offs per Retry-Orig ring worker (0 = default)")
	adaptiveThreadsFlag := flag.String("adaptive-threads", "8", "goroutine counts for the adaptive-vs-static stripe sweep (empty = skip)")
	adaptiveOrigPasses := flag.Int("adaptive-orig-passes", 0, "token hand-offs per ring worker in the adaptive Retry-Orig cells (0 = default)")
	coalesceThreadsFlag := flag.String("coalesce-threads", "8", "goroutine counts for the cross-commit wakeup coalescing sweep (empty = skip)")
	coalesceKsFlag := flag.String("coalesce-ks", "", "CoalesceCommits values for the tight-loop cells (default 0,2,8; 0 is always included)")
	tightloopOps := flag.Int("tightloop-ops", 0, "tight-loop producer commits per lane in the coalesce sweep (0 = default)")
	latencyThreadsFlag := flag.String("latency-threads", "8", "goroutine counts for the wake-latency sweep (empty = skip)")
	maxDelay := flag.Duration("max-delay", 0, "CoalesceMaxDelay for the wake-latency cells (0 = default 25ms)")
	latencyRounds := flag.Int("latency-rounds", 0, "burst/claim hand-offs per lane in the wake-latency cells (0 = default)")
	noBaseline := flag.Bool("no-baseline", false, "skip the Pthreads lock+condvar baseline rows")
	quick := flag.Bool("quick", false, "reduced operation counts (CI and smoke tests)")
	out := flag.String("out", "BENCH_PR9.json", "output path for the JSON report")
	diff := flag.String("diff", "BENCH_PR6.json", "prior report to diff wake-checks/commit and signals/commit against (\"\" = skip); a missing file is fatal only when -diff was given explicitly")
	verbose := flag.Bool("v", false, "per-point progress lines")
	flag.Parse()
	diffExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "diff" {
			diffExplicit = true
		}
	})

	o := perf.Options{
		Seed:               *seed,
		Threads:            parseInts(*threadsFlag, "threads"),
		BufferOps:          *ops,
		BufferCap:          *bufCap,
		Scale:              *scale,
		Trials:             *trials,
		SweepStripes:       parseInts(*sweepFlag, "sweep-stripes"),
		OrigThreads:        parseInts(*origThreadsFlag, "orig-threads"),
		OrigPasses:         *origPasses,
		AdaptiveThreads:    parseInts(*adaptiveThreadsFlag, "adaptive-threads"),
		AdaptiveOrigPasses: *adaptiveOrigPasses,
		CoalesceThreads:    parseInts(*coalesceThreadsFlag, "coalesce-threads"),
		CoalesceKs:         parseIntsMin(*coalesceKsFlag, "coalesce-ks", 0),
		TightloopOps:       *tightloopOps,
		LatencyThreads:     parseInts(*latencyThreadsFlag, "latency-threads"),
		LatencyMaxDelay:    *maxDelay,
		LatencyRounds:      *latencyRounds,
		Baseline:           !*noBaseline,
	}
	if *enginesFlag != "" {
		o.Engines = strings.Split(*enginesFlag, ",")
	}
	if *mechsFlag != "" {
		for _, m := range strings.Split(*mechsFlag, ",") {
			o.Mechs = append(o.Mechs, mech.Mechanism(m))
		}
	}
	if *workloadsFlag != "" {
		o.Workloads = strings.Split(*workloadsFlag, ",")
	}
	if *quick {
		if o.BufferOps == 0 {
			o.BufferOps = 100
		}
		if o.Scale == 0 {
			o.Scale = 1
		}
		if o.OrigPasses == 0 {
			o.OrigPasses = 50
		}
		if o.AdaptiveOrigPasses == 0 {
			o.AdaptiveOrigPasses = 300
		}
		if o.TightloopOps == 0 {
			o.TightloopOps = 200
		}
		if o.LatencyRounds == 0 {
			o.LatencyRounds = 4
		}
	}

	// Load the prior report before the sweep so a bad -diff path fails
	// fast instead of discarding an hour of measurement. The default diff
	// target is the previous PR's committed report, which a fresh
	// checkout may legitimately lack — skip with a note in that case, and
	// fail only when the user named a report explicitly.
	var prior *perf.Report
	if *diff != "" {
		var err error
		prior, err = perf.LoadReport(*diff)
		if err != nil {
			if diffExplicit {
				fmt.Fprintln(os.Stderr, "tmbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "tmbench: no trajectory diff: %v (pass -diff explicitly to make this fatal)\n", err)
		}
	}
	if *verbose {
		o.Progress = func(done, total int, p perf.Point) {
			fmt.Printf("[%4d/%4d] %-20s %-7s %-10s t=%d stripes=%d %.3fs\n",
				done, total, p.Workload, p.Engine, p.Mech, p.Threads, p.Stripes, p.Seconds)
		}
	}

	rep, err := perf.Run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
	}

	// The latency verdict's throughput guard needs the prior report:
	// bounding wake latency must not cost the tight loop the throughput
	// the previous PR's coalesce sweep measured. Vacuously true when
	// either side lacks the number (no prior report, or a narrowed run
	// that skipped the coalesce sweep).
	if lv := rep.LatencyVerdict; lv != nil {
		if cv := rep.CoalesceVerdict; cv != nil {
			lv.TightloopThroughput = cv.TightloopThroughputOn
			// Only a prior verdict at the same rung and K is comparable:
			// a -quick run at 2 goroutines against the committed 8-goroutine
			// report would fail on the axes, not the change under test.
			if prior != nil && prior.CoalesceVerdict != nil &&
				prior.CoalesceVerdict.Threads == cv.Threads && prior.CoalesceVerdict.K == cv.K {
				lv.TightloopThroughputPrior = prior.CoalesceVerdict.TightloopThroughputOn
			}
		}
		if lv.TightloopThroughputPrior > 0 && lv.TightloopThroughput > 0 {
			lv.ThroughputWithin10Pct = lv.TightloopThroughput >= 0.90*lv.TightloopThroughputPrior
		}
		lv.Holds = lv.WithinBound && lv.ThroughputWithin10Pct
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark report: %d points + %d stripe-sweep points + %d orig-sweep points + %d adaptive points + %d coalesce points + %d latency points -> %s\n",
		len(rep.Points), len(rep.StripeSweep), len(rep.OrigSweep), len(rep.AdaptiveSweep), len(rep.CoalesceSweep), len(rep.LatencySweep), *out)
	if v := rep.StripeVerdict; v != nil {
		fmt.Printf("stripe sweep (%s, %d goroutines): wakeup checks per commit %.2f @ %d stripe(s) vs %.2f @ %d stripes\n",
			v.Workload, v.Threads, v.WakeupsPerCommitLow, v.LowStripes, v.WakeupsPerCommitHigh, v.HighStripes)
		if v.Improved {
			fmt.Println("stripe verdict: IMPROVED (sharded wakeup index visits fewer waiters per commit)")
		} else {
			fmt.Println("stripe verdict: no improvement measured on this run")
		}
	}
	if v := rep.OrigVerdict; v != nil {
		fmt.Printf("retry-orig sweep (%s, %d goroutines): %s vs %s\n", v.Workload, v.Threads, v.Baseline, v.Candidate)
		fmt.Printf("  orig-scan checks per commit %.3f -> %.3f, signals per commit %.3f -> %.3f, throughput %.0f -> %.0f ops/s\n",
			v.OrigChecksPerCommitBaseline, v.OrigChecksPerCommitCandidate,
			v.SignalsPerCommitBaseline, v.SignalsPerCommitCandidate,
			v.ThroughputBaseline, v.ThroughputCandidate)
		if v.Improved {
			fmt.Println("retry-orig verdict: IMPROVED (sharded registry scans fewer sleepers; batched delivery signals no more)")
		} else {
			fmt.Println("retry-orig verdict: no improvement measured on this run")
		}
	}
	if v := rep.AdaptiveVerdict; v != nil {
		fmt.Printf("adaptive sweep (%d goroutines, start %d stripe, bounds [1, %d]):\n", v.Threads, v.StartStripes, v.MaxStripes)
		fmt.Printf("  buffer   wake-checks/commit: best static %.3f @ %d stripes, adaptive %.3f (within 10%%: %v)\n",
			v.BufferChecksPerCommitBest, v.BufferBestStaticStripes, v.BufferChecksPerCommitAdap, v.BufferWithin10Pct)
		fmt.Printf("  origring orig-checks/commit: best static %.3f @ %d stripes, adaptive %.3f (within 10%%: %v)\n",
			v.OrigChecksPerCommitBest, v.OrigBestStaticStripes, v.OrigChecksPerCommitAdap, v.OrigWithin10Pct)
		if v.Converged {
			fmt.Println("adaptive verdict: CONVERGED (controller lands within 10% of the best static configuration)")
		} else {
			fmt.Println("adaptive verdict: did not land within 10% of the best static configuration on this run")
		}
	}
	if v := rep.CoalesceVerdict; v != nil {
		fmt.Printf("coalesce sweep (%d goroutines, K=%d vs per-commit scans):\n", v.Threads, v.K)
		fmt.Printf("  tightloop wake-checks/commit: %.3f -> %.3f, throughput %.0f -> %.0f ops/s (improved: %v)\n",
			v.TightloopChecksPerCommitOff, v.TightloopChecksPerCommitOn,
			v.TightloopThroughputOff, v.TightloopThroughputOn, v.TightloopImproved)
		fmt.Printf("  buffer    wake-checks/commit: %.3f -> %.3f (no regression: %v)\n",
			v.BufferChecksPerCommitOff, v.BufferChecksPerCommitOn, v.BufferNoRegression)
		fmt.Printf("  origring  orig-checks/commit: %.3f -> %.3f (no regression: %v)\n",
			v.OrigChecksPerCommitOff, v.OrigChecksPerCommitOn, v.OrigNoRegression)
		if v.Improved {
			fmt.Println("coalesce verdict: IMPROVED (tight-loop scans coalesced; blocking workloads unharmed)")
		} else {
			fmt.Println("coalesce verdict: no improvement measured on this run")
		}
	}
	if v := rep.LatencyVerdict; v != nil {
		fmt.Printf("latency sweep (%s, %d goroutines, K=%d, max delay %v + %v slack):\n",
			v.Workload, v.Threads, v.K, time.Duration(v.MaxDelayNs), time.Duration(v.SlackNs))
		fmt.Printf("  sleep-to-signal latency over %d sleeps (worst cell): p50 %v, p99 %v, max %v (within bound: %v)\n",
			v.Sleeps, time.Duration(v.P50Ns), time.Duration(v.P99Ns), time.Duration(v.MaxNs), v.WithinBound)
		fmt.Printf("  tightloop throughput %.0f vs prior %.0f ops/s (within 10%%: %v)\n",
			v.TightloopThroughput, v.TightloopThroughputPrior, v.ThroughputWithin10Pct)
		if v.Holds {
			fmt.Println("latency verdict: HOLDS (no waiter sleeps past the age bound while its notifier idles)")
		} else {
			fmt.Println("latency verdict: did not hold on this run")
		}
	}
	if prior != nil {
		fmt.Printf("trajectory diff against %s:\n", *diff)
		for _, line := range perf.DiffReports(prior, rep) {
			fmt.Println("  " + line)
		}
	}
}

func parseInts(s, flagName string) []int {
	return parseIntsMin(s, flagName, 1)
}

// parseIntsMin parses a comma-separated int list rejecting entries below
// min (-coalesce-ks legitimately includes 0, thread ladders do not).
func parseIntsMin(s, flagName string, min int) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			fmt.Fprintf(os.Stderr, "tmbench: bad -%s entry %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
