// Command syncbench is the repository's benchmark: four closed-loop
// condition-synchronization workloads run against the default
// tmsync.New(kind, tmsync.Config{}) systems, each checked for correct
// output, with end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run.
//
// Usage, from the root of the repository:
//
//	bash syncbench/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package into .bench_build/ and runs it; `go run .`
// from this directory does the same by hand. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, where metrics holds the end-to-end metrics BENCHMARK.json
// names (--trace 0) or the per-layer ones (--trace 1). The lines above it
// stamp the host (NumCPU, GOMAXPROCS, Go version, VCS revision and dirty
// flag) and the run (workload, seed, length), list each measured window's
// values, and tabulate every metric with its unit and sample count. A
// failed self-check prints "# CHECK FAILED", sets "correct" to false and
// exits 1.
//
// # Workloads
//
// Every workload is a closed loop: each client goroutine issues its next
// op only after the previous one returns. Each uses exactly two
// transacting goroutines; the calling goroutine only paces the run.
//
//   - handoff (eager engine, Retry): the paper's Figure 2.3 shape. One
//     producer and one consumer share a buffer.TMBuffer of capacity 4 and
//     wait with Retry (Algorithm 5) when it is full or empty. One op is
//     one Put or one Get. It is bound by conflicts: about 0.3 of attempts
//     abort, and most ops that raise Retry resolve through Retry's tagged
//     restart or the deschedule double-check rather than by sleeping. It
//     loads the tm abort/retry loop, engine rollback and core's deschedule
//     path, and puts little load on the clock or on the zero-sleeper
//     commit path. Items carry seeded sequence numbers; the consumer
//     checks that they arrive in FIFO order, none lost or duplicated.
//   - batchwait (lazy engine, WaitPred): one producer commits back-to-back
//     increments of a padded counter; one consumer waits with WaitPred
//     (Algorithm 7) until the counter reaches 64, then claims the batch.
//     One op is one increment or one claim. WaitPred waiters sit on core's
//     unindexed list, so every producer commit re-evaluates the sleeping
//     consumer's predicate, and the consumer really sleeps on a large
//     share of its claims: this loads core's wake scan and the sem
//     park/unpark round trip, with an abort rate near 1.5%. Produced must
//     equal consumed, and the counter must end at 0.
//   - disjoint (eager engine, condition sync enabled, nobody waits): two
//     goroutines, each on its own 256 cache-line-padded words, issue a
//     seeded mix of four read-only transactions (each reading four of its
//     words) per one-word read-modify-write. It measures the cost the
//     paper says should be zero: the shared tm.Stats adds, the clock
//     commit, Quiesce and core's postCommit with no sleepers. Every core
//     wake metric reads zero here. Each read must see the owner's own
//     commit count, and each word must end at the writer commits issued on
//     it.
//   - barrier (hybrid engine, Await): parsecsim's streamcluster skeleton
//     with two workers at scale 2. One op is one whole skeleton run, whose
//     checksum must equal Benchmark.Reference. It is the only workload on
//     the simulated-HTM engine, AwaitSnapshot (Algorithm 6) and parsecsim.
//     It is dominated by compute, so a gain in a TM layer should move it
//     little; it guards the paper-figure applications against
//     regressions. Each run registers two threads with its System for
//     good, so a System is replaced every 32 runs, between ops.
//     BENCHMARK.json does not list barrier: on a 2-CPU host about 1% of
//     its runs lose a scheduler quantum (~4 ms against a ~0.6 ms run), so
//     its p99 sits on that boundary and moved by ±30% between runs. It
//     stays runnable by hand, traced or not.
//
// # End-to-end metrics
//
// A run builds its workload 21 times, each from a collected heap returned
// to the OS, as in a fresh process; setup_s is the median build time
// (System, threads and data structures, and for barrier the reference
// checksum). The last build then runs a short warm-up and --seconds of
// measured one-second windows. Throughput, CPU per op and the latency
// percentiles are medians over the windows, so a short disturbance of the
// host moves one window, not the result. Percentiles are nearest-rank;
// each window keeps an evenly spaced subset of at most 16384 op latencies
// per client, weighted by its spacing when the clients' samples are
// pooled.
//
//	setup_s              s       median build time
//	throughput_ops_s     ops/s   ops completed per second
//	op_latency_p50_us    us      per-op time around the workload's call
//	op_latency_p99_us    us
//	cpu_us_per_op        us      process user+system CPU (getrusage) per op
//	allocs_per_op        objects runtime.MemStats.Mallocs delta per op
//	max_rss_mb           MiB     peak resident set size
//	failed_ops_frac      ratio   ops failing their self-check / ops issued
//	wake_latency_p50_us  us      handoff and batchwait only: from the
//	wake_latency_p99_us  us      commit that made a waiter's condition true
//	                             (stamped by a tx.OnCommit callback in that
//	                             transaction) to the waiter's Atomic
//	                             returning, over ops that raised a wait
//
// The table adds, for op and wake latency, the highest percentile of the
// pooled run that still has at least ten samples beyond it. The client
// code allocates nothing per op, so allocs_per_op counts the library's
// allocations. In handoff and batchwait that includes the one-element
// OnCommit slice each stamping commit allocates: tm resets Tx.OnCommit to
// nil after every commit.
//
// The result line carries only the end-to-end metrics every workload has
// and that are never zero: allocs_per_op is zero on disjoint,
// failed_ops_frac is zero whenever the run is correct, wake latency exists
// only where something waits, and max_rss_mb is dominated by the
// benchmark's own sample buffers, identical from run to run. The table
// prints them all.
//
// # Per-layer metrics
//
// With --trace 1 the run has two halves of --seconds/2 each: an untraced
// one, then a traced one on freshly built Systems whose seams are wrapped
// after tmsync.New and before any NewThread. bench.trace_overhead_frac is
// (untraced - traced throughput) / untraced. The traced half must pass
// the same self-checks, which shows the wrappers are transparent.
//
//	layer (seam)                  metrics                                 should move -> on
//	tm: spans around               tm.attempts_per_op, tm.abort_ratio,     throughput_ops_s and
//	  Thread.Atomic, plus Stats    tm.atomic_self_ns_p50,                  cpu_us_per_op on handoff;
//	                               tm.ro_commit_share                      op_latency_p50_us on
//	                                                                       disjoint (self time holds
//	                                                                       the shared Stats adds)
//	engine (stm/eager, stm/lazy,   engine.{begin,read,write,commit,        op_latency_p50_us on
//	  hybrid): a forwarding        rollback,await_snapshot}_ns_p50,        disjoint (commit holds orec
//	  tm.Engine as sys.Engine      engine.commit_ns_p99,                   locks, writeback, Quiesce);
//	                               engine.reads_per_attempt,               throughput_ops_s on handoff
//	                               engine.commit_abort_ratio               (rollback); a small share
//	                                                                       on barrier
//	clock: a forwarding            clock.calls_per_attempt,                op_latency_p50_us on
//	  clock.Source as sys.Clock,   clock.commit_ns_p50,                    disjoint; no change
//	  plus Stats.Clock*            clock.shared_writes_per_commit          predicted on batchwait
//	                                                                       wake latency
//	core: sys.PostCommit chained   core.postcommit_ns_{p50,p99},           throughput_ops_s on
//	  to core's hook, sys.Tracer   core.postcommit_share,                  disjoint (postCommit with
//	  block->wake, plus Stats      core.wake_checks_per_commit,            no sleepers); cpu_us_per_op
//	                               core.useful_wake_ratio,                 and throughput_ops_s on
//	                               core.futile_wakeup_ratio,               batchwait (futile predicate
//	                               core.deschedules_per_op,                scans); wake_latency_* on
//	                               core.block_to_wake_ns_{p50,p99}         handoff
//	sem: the sys.WakeLatency hook  sem.sleeps_per_op,                      wake_latency_p50_us on
//	                               sem.sleep_to_signal_ns_{p50,p99}        batchwait (park/unpark)
//	benchmark                      bench.trace_overhead_frac               -
//
// Spans: the op (around the workload's call); the attempt, from
// Engine.Begin to the end of Commit or Rollback; inside it engine read,
// write, commit, rollback and await-snapshot; core.postcommit;
// core.block, from TraceBlock to TraceWake; and sem.sleep, which ends
// when the WakeLatency hook is called and starts its d earlier. The hook
// names no thread, so a sleep is attributed to the sampled block span
// that contains it. Each span carries its thread's ID and its op's id.
// One op in N is sampled, with N sized from the untraced half's
// throughput so the spans of ops spread over the whole traced half fit a
// fixed buffer; counters cover every call. Clock calls carry no thread,
// so the clock keeps only counts and sampled Commit timings, striped by
// the calling goroutine's stack so the counting adds no shared cache
// line.
// A span's self time is its length minus the union of its children; the
// run fails if, for any sampled op and thread, the self times sum to more
// than the op's length. With -spans DIR the traced half writes every span
// and its self time to DIR/<workload>-seed<seed>.tsv.
//
// Ratios are printed with their base (the denominator's count). A futile
// wakeup is a TraceWake followed by another TraceBlock before the thread
// next commits, that is, within the same Atomic call: the woken
// transaction found its condition still false and slept again.
//
// # What cannot be seen from outside
//
// Orec lock acquisition and Quiesce both happen inside Engine.Commit, so
// engine.commit time includes them; splitting them out needs tracing
// inside the engines. The same holds for validation inside reads and for
// Retry's tagged restart, which shows only as an extra attempt.
// tm.Stats.FutileWakeups is dead: nothing in the repository increments
// it, which is why futile wakeups are counted here from Tracer events.
// For barrier, whose op runs its transactions on the skeleton's own
// threads, tm.atomic_self_ns_p50 is the op's time outside every
// transaction: the skeleton's compute.
package main
