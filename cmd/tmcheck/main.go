// Command tmcheck is the cross-engine differential checker: it generates
// randomized concurrent scenarios and runs each one under every TM engine
// (eager STM, lazy STM, simulated HTM, hybrid) × every applicable
// condition-synchronization mechanism, diffing the observed final state
// against a sequential oracle. Any deviation — state mismatch, token
// conservation failure, per-producer FIFO violation, or a wedged (lost
// wakeup) run — is reported with a one-line seed that reproduces it.
//
// Usage:
//
//	go run ./cmd/tmcheck -n 50 -seed 1          # 50 scenarios, all engines
//	go run ./cmd/tmcheck -n 1 -seed 123 -v      # replay one failure, verbose
//	go run ./cmd/tmcheck -budget 30s            # as many scenarios as fit
//	go run ./cmd/tmcheck -parsec -scale 2       # PARSEC skeletons instead
//	go run ./cmd/tmcheck -n 5 -inject           # prove the checker detects faults
//	go run ./cmd/tmcheck -n 15 -adaptive        # forced online stripe resizes (1->4->64->16)
//	go run ./cmd/tmcheck -n 15 -coalesce 8      # cross-commit wakeup coalescing (flush every 8)
//	go run ./cmd/tmcheck -n 15 -coalesce 8 -max-delay 2ms  # with the age-bound flush armed
//	go run ./cmd/tmcheck -n 15 -ext             # timestamp extension in the software TMs
//	go run ./cmd/tmcheck -n 20 -zipf 1.2        # Zipf-skewed key contention
//	go run ./cmd/tmcheck -n 20 -read-mostly     # read-mostly long transactions
//	go run ./cmd/tmcheck -n 10 -phases 20:counters,20:readmostly,10:map  # phase-shifting mix
//	go run ./cmd/tmcheck -n 5 -record traces/   # capture each run as a replayable trace
//	go run ./cmd/tmcheck -replay 'traces/*.trace'  # differential replay of recorded traces
//
// Mode flags are validated for coherence before anything runs: -stripes
// pins a static count and therefore contradicts -adaptive's forced resize
// schedule, -resize-every modifies only -adaptive, -unbatched
// (signal-at-claim delivery) contradicts -coalesce (a deferred scan IS a
// batch carried across commits), -max-delay ages the pending buffer
// -coalesce maintains, so it requires -coalesce and a positive duration.
// -replay reruns committed traces, so it contradicts every flag that
// shapes generation (-seed, -n, -threads, -ops, -zipf, -read-mostly,
// -phases, -inject, -parsec, -record); knob flags remain allowed and
// override the trace's stamped knobs field by field, with the merged
// configuration re-validated. Nonsensical combinations exit 2 instead of
// silently running just one of the modes.
//
// Exit status is 0 iff every execution matched its oracle (inverted under
// -inject: the run fails if any injected fault goes undetected).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tmsync/internal/harness"
	"tmsync/internal/locktable"
	"tmsync/internal/mech"
	"tmsync/internal/mono"
	"tmsync/internal/trace"
)

func main() {
	n := flag.Int("n", 50, "number of randomized scenarios")
	seed := flag.Uint64("seed", 1, "base seed; scenario i uses seed+i, so any failure replays with -n 1 -seed <printed>")
	threads := flag.Int("threads", 0, "threads per scenario (0 = seed-derived 2-4)")
	ops := flag.Int("ops", 0, "approx ops per thread (0 = seed-derived 8-24)")
	budget := flag.Duration("budget", 0, "stop starting new scenarios after this much time (0 = no budget)")
	engine := flag.String("engine", "", "restrict to one engine (default: all four)")
	stripes := flag.Int("stripes", 0, "orec-table stripe count for every system (0 = default); any power of two must yield identical outcomes")
	adaptive := flag.Bool("adaptive", false, "force a deterministic online stripe-resize schedule (1 -> 4 -> 64 -> 16, cycling) while the suite runs; resizing is a pure performance mechanism, so outcomes must be identical")
	resizeEvery := flag.Int("resize-every", 10, "writer commits between forced resizes (with -adaptive)")
	unbatched := flag.Bool("unbatched", false, "signal-at-claim wakeup delivery instead of the per-commit batch; must yield identical outcomes")
	coalesce := flag.Int("coalesce", 0, "cross-commit wakeup coalescing: defer post-commit wake scans across up to this many adjacent commits per thread (0 = scan every commit); must yield identical outcomes")
	maxDelay := flag.Duration("max-delay", 0, "age bound on the coalesced pending buffer (with -coalesce): flush deferred wake scans older than this, including by the idle-owner backstop; must yield identical outcomes")
	ext := flag.Bool("ext", false, "enable read-time timestamp extension in the software TMs (eager, lazy, and the hybrid's software mode; hardware attempts ignore it); must yield identical outcomes")
	only := flag.String("mech", "", "restrict to one mechanism (default: all applicable)")
	parsec := flag.Bool("parsec", false, "check the eight PARSEC skeletons instead of random scenarios")
	scale := flag.Int("scale", 1, "PARSEC workload scale (with -parsec)")
	inject := flag.Bool("inject", false, "inject a deliberate invariant violation into every scenario; exit 0 iff all are caught")
	zipf := flag.Float64("zipf", 0, "Zipf exponent for key selection in generated scenarios (0 = uniform); skews contention onto a few hot keys")
	readMostly := flag.Bool("read-mostly", false, "generate read-mostly long transactions (wide read scans with one commutative write)")
	phases := flag.String("phases", "", "phase-shifting workload schedule `ops:mix,ops:mix,...` (mixes: "+strings.Join(harness.Mixes, ", ")+")")
	record := flag.String("record", "", "record one execution of every scenario as a replayable trace into this `dir`")
	replay := flag.String("replay", "", "differentially replay the traces matching this `glob` instead of generating scenarios")
	verbose := flag.Bool("v", false, "per-scenario progress and the engine × mechanism breakdown")
	flag.Parse()

	// Flag-coherence validation. Each mode flag selects one experiment;
	// some overlap (coalescing under forced resizes is a meaningful
	// cross), others contradict each other outright. The contradictions
	// used to be accepted silently, with one flag winning arbitrarily — a
	// green run that never tested what the invocation claimed.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	resizeEveryExplicit, maxDelayExplicit := explicit["resize-every"], explicit["max-delay"]
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tmcheck: "+format+"\n", args...)
		os.Exit(2)
	}
	if *stripes < 0 || (*stripes > 0 && *stripes&(*stripes-1) != 0) || *stripes > locktable.DefaultSize {
		fail("-stripes %d must be a power of two in [1, %d] (or 0 for the default)", *stripes, locktable.DefaultSize)
	}
	if *coalesce < 0 {
		fail("-coalesce %d must be >= 0", *coalesce)
	}
	if *stripes > 0 && *adaptive {
		fail("-stripes pins a static stripe count and contradicts -adaptive's forced resize schedule; pick one")
	}
	if resizeEveryExplicit && !*adaptive {
		fail("-resize-every modifies -adaptive and does nothing alone; add -adaptive or drop it")
	}
	if *unbatched && *coalesce > 0 {
		fail("-unbatched (signal-at-claim delivery) contradicts -coalesce (a deferred scan is a batch carried across commits); pick one")
	}
	if maxDelayExplicit && *maxDelay <= 0 {
		fail("-max-delay %v must be a positive duration", *maxDelay)
	}
	if maxDelayExplicit && *coalesce == 0 {
		fail("-max-delay ages the pending buffer -coalesce maintains and does nothing alone; add -coalesce or drop it")
	}
	if *parsec && *inject {
		// Fault injection rewrites generated programs; the PARSEC
		// skeletons are fixed workloads with nothing to inject into.
		fail("-inject applies to randomized scenarios only, not -parsec")
	}
	if *zipf < 0 {
		fail("-zipf %g must be >= 0", *zipf)
	}
	for _, genFlag := range []string{"zipf", "read-mostly", "phases", "record"} {
		if explicit[genFlag] && *parsec {
			// The PARSEC skeletons are fixed workloads: nothing to skew,
			// reshape, or record as an op program.
			fail("-%s applies to randomized scenarios only, not -parsec", genFlag)
		}
	}
	if *readMostly && *phases != "" {
		fail("-read-mostly names a default mix and is ignored under -phases; put readmostly in the schedule instead")
	}
	var phaseSchedule []harness.Phase
	if *phases != "" {
		var err error
		if phaseSchedule, err = harness.ParsePhases(*phases); err != nil {
			fail("-phases: %v", err)
		}
	}
	if *replay != "" {
		// Replay reruns committed programs; every flag that shapes
		// generation would be silently ignored, so reject the combination.
		for _, genFlag := range []string{"seed", "n", "threads", "ops", "inject", "parsec", "scale", "zipf", "read-mostly", "phases", "record"} {
			if explicit[genFlag] {
				fail("-replay reruns recorded traces; -%s shapes generation and contradicts it", genFlag)
			}
		}
	}

	engines := harness.Engines
	if *engine != "" {
		ok := false
		for _, e := range harness.Engines {
			if e == *engine {
				ok = true
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "tmcheck: unknown engine %q (have %s)\n", *engine, strings.Join(harness.Engines, ", "))
			os.Exit(2)
		}
		engines = []string{*engine}
	}

	knobs := harness.Knobs{Stripes: *stripes, Unbatched: *unbatched, CoalesceCommits: *coalesce, CoalesceMaxDelay: *maxDelay, TimestampExtension: *ext}
	if *adaptive {
		// The forced schedule drives the stripe count through growth,
		// large jumps, and shrinkage (1 -> 4 -> 64 -> 16, cycling) while
		// waiters sleep across the swaps; every engine x mechanism run
		// must still match the sequential oracle exactly.
		if *resizeEvery <= 0 {
			fail("-resize-every must be positive")
		}
		knobs.Stripes = 1 // start deliberately wrong: the old global table
		knobs.ResizeEvery = *resizeEvery
		knobs.ResizeSchedule = []int{4, 64, 16, 1}
	}

	var rep harness.Report
	start := mono.Now()
	scenarios := 0

	runOne := func(s *harness.Scenario, k harness.Knobs) {
		results := harness.RunScenarioKnobs(s, engines, mech.Mechanism(*only), k)
		rep.Add(results)
		scenarios++
		failed := 0
		for i := range results {
			if results[i].Failed() {
				failed++
				if !*inject {
					fmt.Println(results[i].String())
				}
			}
		}
		if *verbose {
			fmt.Printf("%-12s threads=%d runs=%d failed=%d\n", s.Name, s.Threads, len(results), failed)
		}
	}

	// recordOne captures one execution of s (first selected engine, first
	// applicable mechanism) and writes it as a trace file the -replay mode
	// and the committed-fixture suite can rerun.
	recordOne := func(s *harness.Scenario) {
		recMech := harness.MechsFor(engines[0])[0]
		if *only != "" {
			found := false
			for _, m := range harness.MechsFor(engines[0]) {
				if m == mech.Mechanism(*only) {
					found = true
				}
			}
			if !found {
				fail("-record: mechanism %q does not run on engine %q", *only, engines[0])
			}
			recMech = mech.Mechanism(*only)
		}
		tr, res, err := harness.Record(s, engines[0], recMech, knobs)
		if err != nil {
			fail("-record: %v", err)
		}
		rep.Add([]harness.Result{res})
		if res.Failed() && !*inject {
			fmt.Println(res.String())
		}
		path := filepath.Join(*record, s.Name+".trace")
		f, err := os.Create(path)
		if err != nil {
			fail("-record: %v", err)
		}
		if err := trace.Encode(f, tr); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fail("-record: writing %s: %v", path, err)
		}
		if *verbose {
			fmt.Printf("recorded %s (%d events)\n", path, len(tr.Events))
		}
	}

	switch {
	case *replay != "":
		files, err := filepath.Glob(*replay)
		if err != nil {
			fail("-replay: bad pattern %q: %v", *replay, err)
		}
		if len(files) == 0 {
			fail("-replay: %q matched no trace files", *replay)
		}
		sort.Strings(files)
		for _, file := range files {
			if *budget > 0 && start.Elapsed() > *budget {
				fmt.Printf("# budget %v exhausted before %s\n", *budget, file)
				break
			}
			f, err := os.Open(file)
			if err != nil {
				fail("-replay: %v", err)
			}
			tr, err := trace.Decode(f)
			f.Close()
			if err != nil {
				fail("-replay: %s: %v", file, err)
			}
			s, stamped, err := harness.ReplayTrace(tr)
			if err != nil {
				fail("-replay: %s: %v", file, err)
			}
			// Start from the trace's stamped knobs; explicit CLI knob flags
			// override field by field, and the merged configuration must
			// still be coherent — a stamp saying coalesce=8 plus an
			// -unbatched override is as contradictory as the flag pair.
			k := stamped
			if explicit["stripes"] {
				k.Stripes = knobs.Stripes
			}
			if explicit["unbatched"] {
				k.Unbatched = *unbatched
			}
			if explicit["coalesce"] {
				k.CoalesceCommits = *coalesce
			}
			if explicit["max-delay"] {
				k.CoalesceMaxDelay = *maxDelay
			}
			if explicit["ext"] {
				k.TimestampExtension = *ext
			}
			if explicit["adaptive"] {
				k.Stripes, k.ResizeEvery, k.ResizeSchedule = knobs.Stripes, knobs.ResizeEvery, knobs.ResizeSchedule
			}
			if k.Unbatched && k.CoalesceCommits > 0 {
				fail("-replay: %s: merged knobs %q are contradictory (unbatched with coalescing)", file, harness.EncodeKnobs(k))
			}
			if k.CoalesceMaxDelay > 0 && k.CoalesceCommits == 0 {
				fail("-replay: %s: merged knobs %q are contradictory (max-delay without coalescing)", file, harness.EncodeKnobs(k))
			}
			s.Name = filepath.Base(file)
			runOne(s, k)
		}
	case *parsec:
		for _, s := range harness.ParsecScenarios(*threads, *scale) {
			if *budget > 0 && start.Elapsed() > *budget {
				break
			}
			runOne(s, knobs)
		}
	default:
		if *record != "" {
			if err := os.MkdirAll(*record, 0o755); err != nil {
				fail("-record: %v", err)
			}
		}
		for i := 0; i < *n; i++ {
			if *budget > 0 && start.Elapsed() > *budget {
				fmt.Printf("# budget %v exhausted after %d of %d scenarios\n", *budget, i, *n)
				break
			}
			s := harness.Generate(*seed+uint64(i), harness.GenConfig{
				Threads:     *threads,
				Ops:         *ops,
				InjectFault: *inject,
				Zipf:        *zipf,
				ReadMostly:  *readMostly,
				Phases:      phaseSchedule,
			})
			runOne(s, knobs)
			if *record != "" {
				recordOne(s)
			}
		}
	}

	failures := rep.Failures()
	fmt.Printf("\n# %d scenario(s), %v elapsed\n", scenarios, start.Elapsed().Round(time.Millisecond))
	fmt.Print(rep.EngineTable())
	if rep.Runs() == 0 {
		// An OK verdict over zero executions would be vacuous — the
		// -engine/-mech filters selected an inapplicable combination
		// (e.g. retry-orig needs STM metadata the hardware engines lack).
		fmt.Printf("\nFAIL: no executions selected — mechanism %q does not run on the chosen engine(s)\n", *only)
		os.Exit(2)
	}
	if *verbose {
		fmt.Println()
		fmt.Print(rep.MechTable())
	}

	if *inject {
		// Detection check: every scenario carried a deliberate violation,
		// so every execution must have deviated from its oracle.
		if rep.AllPassed() {
			fmt.Println("\nFAIL: injected invariant violations went undetected")
			os.Exit(1)
		}
		fmt.Printf("\nOK: all injected violations caught (%d failing executions, as intended)\n", len(failures))
		if len(failures) > 0 {
			fmt.Printf("example: %s\n", failures[0].String())
		}
		return
	}
	if !rep.AllPassed() {
		fmt.Printf("\nFAIL: %d execution(s) deviated from the sequential oracle\n", len(failures))
		os.Exit(1)
	}
	fmt.Println("\nOK: every engine x mechanism pair matched the sequential oracle")
}
