// Command tmbench is the seeded benchmark pipeline: it sweeps every TM
// engine × condition-synchronization mechanism over the repository's
// workloads (lane-partitioned bounded buffer + the eight PARSEC
// concurrency skeletons) across a goroutine ladder, runs the selected
// rows of internal/perf's experiment table — each a set of cells and a
// verdict pinning one claim (stripe, retry-orig, adaptive, coalesce,
// latency; see README "Benchmark pipeline") — and writes one
// machine-readable JSON report (schema tmsync-bench/2).
//
// Usage:
//
//	go run ./cmd/tmbench -seed 1 -threads 1,2,4,8          # full sweep + every experiment -> bench.json
//	go run ./cmd/tmbench -quick -out /tmp/bench.json       # reduced ops (CI, smoke)
//	go run ./cmd/tmbench -experiments adaptive             # one experiment (plus the ones its verdict reads)
//	go run ./cmd/tmbench -workloads buffer -mechs retry    # narrow the main sweep's axes
//	go run ./cmd/tmbench -diff BENCH_PR6.json              # trajectory diff vs a prior report
//	go run ./cmd/tmbench -max-delay 10ms                   # tighter wake-latency bound
//
// The prior report named by -diff (default: the newest committed report)
// feeds both the trajectory diff and the verdict checks that compare
// against a prior run. It is skipped with a note when the default file
// is absent; an explicitly named -diff report that cannot be loaded is
// fatal.
//
// Exit status is non-zero if any workload self-check fails (a PARSEC
// checksum deviating from its sequential reference, or token
// conservation breaking in an experiment workload) or the report cannot
// be written. Verdicts are printed, not gated on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tmsync/internal/mech"
	"tmsync/internal/perf"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed for produced value streams (recorded in the report)")
	threadsFlag := flag.String("threads", "1,2,4,8", "comma-separated goroutine counts of the main sweep")
	enginesFlag := flag.String("engines", "", "comma-separated engines (default: all four)")
	mechsFlag := flag.String("mechs", "", "comma-separated mechanisms of the main sweep (default: all TM mechanisms)")
	workloadsFlag := flag.String("workloads", "", "comma-separated workloads of the main sweep (default: buffer + all parsec/<name>); without buffer, experiments skip their buffer cells")
	experimentsFlag := flag.String("experiments", "all", "comma-separated experiments to run beside the main sweep (all, or from: "+strings.Join(perf.ExperimentNames(), ", ")+"; \"\" = none)")
	ops := flag.Int("ops", 0, "bounded-buffer operations per worker (0 = default)")
	bufCap := flag.Int("cap", 0, "bounded-buffer capacity per lane (0 = default)")
	scale := flag.Int("scale", 0, "PARSEC workload scale (0 = default)")
	trials := flag.Int("trials", 1, "trials per cell; each is one report point")
	sweepFlag := flag.String("sweep-stripes", "1,64", "static stripe counts of the experiments")
	maxDelay := flag.Duration("max-delay", 0, "CoalesceMaxDelay for the wake-latency cells (0 = default 25ms)")
	noBaseline := flag.Bool("no-baseline", false, "skip the Pthreads lock+condvar baseline rows")
	quick := flag.Bool("quick", false, "reduced operation counts (CI and smoke tests)")
	out := flag.String("out", "bench.json", "output path for the JSON report")
	diff := flag.String("diff", "BENCH_PR9.json", "prior report for the trajectory diff and prior-baseline checks (\"\" = skip); a missing file is fatal only when -diff was given explicitly")
	verbose := flag.Bool("v", false, "per-point progress lines")
	flag.Parse()
	diffExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "diff" {
			diffExplicit = true
		}
	})

	o := perf.Options{
		Seed:            *seed,
		Threads:         parseInts(*threadsFlag, "threads"),
		BufferOps:       *ops,
		BufferCap:       *bufCap,
		Scale:           *scale,
		Trials:          *trials,
		SweepStripes:    parseInts(*sweepFlag, "sweep-stripes"),
		Baseline:        !*noBaseline,
		Quick:           *quick,
		LatencyMaxDelay: *maxDelay,
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
	switch *experimentsFlag {
	case "all":
		o.Experiments = perf.ExperimentNames()
	case "":
	default:
		o.Experiments = strings.Split(*experimentsFlag, ",")
	}
	if *quick {
		if o.BufferOps == 0 {
			o.BufferOps = 100
		}
		if o.Scale == 0 {
			o.Scale = 1
		}
	}

	// Load the prior report before the sweep so a bad -diff path fails
	// fast instead of discarding an hour of measurement. The default diff
	// target is the newest committed report, which a fresh checkout may
	// legitimately lack — skip with a note in that case, and fail only
	// when the user named a report explicitly.
	if *diff != "" {
		var err error
		o.Prior, err = perf.LoadReport(*diff)
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
			fmt.Printf("[%4d/%4d] %-10s %-20s %-7s %-10s t=%d stripes=%d %.3fs\n",
				done, total, p.Experiment, p.Workload, p.Engine, p.Mech, p.Threads, p.Stripes, p.Seconds)
		}
	}

	rep, err := perf.Run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbench:", err)
		os.Exit(1)
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

	fmt.Printf("benchmark report: %d points (experiments: %s) -> %s\n", len(rep.Points), strings.Join(rep.Experiments, ", "), *out)
	for _, v := range rep.Verdicts {
		fmt.Printf("%s sweep (%d goroutines):\n", v.Name, v.Threads)
		var failed []string
		for _, c := range v.Checks {
			mark := "ok"
			switch {
			case c.Relation == "vs":
				mark = "(reported)"
			case !c.Held:
				mark, failed = "FAILED", append(failed, c.Name)
			case c.Vacuous:
				mark = "ok (no cells)"
			}
			fmt.Printf("  %-26s %s: %.4g [%s] %s %.4g [%s] %s\n",
				c.Name, c.Metric, c.Candidate, c.CandidateCells, c.Relation, c.Baseline, c.BaselineCells, mark)
		}
		if v.Holds {
			fmt.Printf("%s verdict: HOLDS\n", v.Name)
		} else {
			fmt.Printf("%s verdict: did not hold (failed: %s)\n", v.Name, strings.Join(failed, ", "))
		}
	}
	if o.Prior != nil {
		fmt.Printf("trajectory diff against %s:\n", *diff)
		for _, line := range perf.DiffReports(o.Prior, rep) {
			fmt.Println("  " + line)
		}
	}
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s, flagName string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "tmbench: bad -%s entry %q\n", flagName, part)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
