// Command perfbench is the repository's benchmark: one command that runs
// a named workload through the program's public entry points, checks
// every rendered output byte for byte against recorded references, and
// prints every end-to-end metric by name with its unit. A separate
// traced run prints the per-layer ledger.
//
// Run it from the checkout root; the launcher builds it from the
// checkout's sources first:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 1
//	.bench_build/perfbench -compare old.jsonl new.jsonl
//	.bench_build/perfbench -record-references
//	(cd perfbench && go test .)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines above it are the
// human report: failed ops by name, every metric with its sample count,
// and the run's result record, which each run also appends to
// .bench_build/results.jsonl. A record carries the host fingerprint
// (nproc, GOMAXPROCS, CPU model, Go version), the commit (the git
// revision built, or a digest of the Go sources where the checkout is
// not a repository), the seed and whether the run was traced.
// Metric names, units and bounds come from BENCHMARK.json at the root.
//
// Every number is host time unless it is marked simulated. Simulated
// statistics (cycles, IPC, coverage, speedups) are correctness outputs,
// not metrics: they sit inside the rendered bytes that are checked. They
// exclude the simulator's built-in warmup (25% of each core's events).
// The repository holds no measurement of real hardware, so the model is
// unvalidated, and the benchmark reports no accuracy figure.
//
// # Load
//
// Load comes from this one process. Every engine runs at parallelism 2,
// the benchmark host's nproc, fixed rather than read from GOMAXPROCS.
// Every loop is closed: one client sends its next op when the previous
// one has finished, over one connection. Before each cold op the
// benchmark collects the garbage earlier ops left and returns the freed
// memory to the operating system, outside the timing, so the op starts
// from the heap and resident set it would have in a process of its own;
// the kernel's peak-RSS mark is reset there too, so each cold op's peak
// RSS is its own. Warm and submit ops run back to back on the heap
// earlier ops left, as in a long-running service: returning memory
// before each would make it fault its pages back in, and on a shared
// host that cost varies enough to double their run-to-run spread.
// Workload program images stay cached process-wide after first use
// (about 15 ms of building at small scale, 80 ms at medium).
//
// # Workloads
//
// Each workload takes a seed; the program receives only the inputs the
// seed draws.
//
//   - suite: all 13 experiments at small scale, in an order the seed
//     permutes. A run is two rounds. In each, a cold pass renders them
//     into a fresh local store; then, until half the run's seconds are
//     up (at least 15 of each), a warm pass re-renders them with a fresh
//     engine over the reopened store, and a submit pass sends them as one
//     job to a fresh sweep service over that store, mounted as tifsserve
//     mounts it on a loopback listener. A shared 2-vCPU host's speed can
//     swing by 10-20% within seconds; two cold passes and ops spread over
//     the run keep the medians steadier. This is the run users make
//     most. The cold pass is about 98% timing simulation of the
//     next-line baseline and the fdip, tifs, perfect and probabilistic
//     mechanisms (discontinuity runs only in points), with the shared
//     baselines deduplicated; each experiment's share of it depends on
//     the order, since the first experiment to need a baseline pays for
//     it, and so does the idle tail of each batch. Warm and submit passes
//     run no simulation. So simulator and engine changes show in wall_s,
//     and store-read, codec and service changes in warm_s and submit_s.
//     The store's writes (about 0.5 MB of small records) sit beside its
//     reads.
//   - point: single simulation points at medium scale. Each is one
//     tifssim invocation without -cache-dir: the mechanism and its
//     next-line baseline as one batch on a fresh engine, rendered by
//     sim.Report. The seed draws two blocks of six points; each block
//     pairs the six workloads with the six mechanisms (fdip,
//     discontinuity, tifs-unbounded, tifs-dedicated, tifs-virtualized,
//     perfect) one to one, in shuffled order, so the sequence's cost
//     does not swing with the seed. One point can use engine parallelism
//     only across its own two jobs, so its latency is bound by the serial
//     core-merge loop and one core idles in the tail: the only workload
//     where an in-run parallel tier can pay, and one that bypasses engine
//     dedup and the store. After each cold point its results are
//     written to a store as tifssim -cache-dir would have written them,
//     and warm and submit ops cycle through the points done so far (at
//     least two batches of six of each) until the point's share of the
//     run is up: the same invocation with -cache-dir, and as a simulation
//     job. These ops take a millisecond or less, so they are spread over
//     the whole run rather than left to the seconds after the cold
//     sequence, where a swing of the host's speed would move all of them
//     at once.
//     Program images are cached process-wide after first use, so a
//     repeated workload skips the image build a separate tifssim
//     process would pay.
//   - analysis: fig3, fig5, fig6, fig10 and fig11 at medium scale, in an
//     order the seed permutes, in three rounds like the suite's (at
//     least 2 warm and 2 submit ops each), because one cold pass takes
//     only about 5 s. It runs no timing simulation: its cold pass
//     is about 72% miss-trace extraction and 15% SEQUITUR, it writes and
//     reads about 6 MB of trace and grammar blobs, and its peak RSS is
//     about four times the suite's. Trace, SEQUITUR and large-blob codec
//     changes show here and nowhere else.
//
// # Correctness
//
// An op is one experiment render in any phase, one service job, or one
// point. An op fails on an error, a panic, a job that did not finish as
// done, a warm or submit op that ran a simulation, or bytes that differ
// from the reference or from the same run's cold bytes. Each failure is
// reported by op name, and counts in failed (failed_frac = failed ÷
// attempted). The references in references.json are SHA-256 digests of
// every suite and analysis experiment and of all 36 points, recorded
// with -record-references through the serial path (engine parallelism
// 1, no store), so they do not come from the 2-worker path they check.
// Compared bytes are rendered outputs only: no timings, paths, PIDs,
// host names or standard error.
//
// # End-to-end metrics
//
// Each is measured in untraced runs, on every workload:
//
//	setup_s      s   median set-up: a run directory, a loopback listener
//	                 with a job client, and one round trip to a freshly
//	                 mounted sweep service. The run sets up once before it
//	                 starts and again (closing what it made) before any op
//	                 that starts 250 ms or more after the last set-up, so
//	                 the samples span the run
//	wall_s       s   suite, analysis: the median of the run's cold passes
//	                 (two, three); point: the whole point sequence (the sum
//	                 of its 12 latencies)
//	warm_s       s   median warm op: suite, analysis: a pass by a fresh
//	                 engine over the reopened store; point: one point served
//	                 from the store, timed six back to back (the median
//	                 batch's time ÷ 6)
//	submit_s     s   median submit op: the same work as one job to a fresh
//	                 sweep service over that store, covering the submit, the
//	                 NDJSON stream and the output (point: batches of six, as
//	                 for warm_s)
//	peak_rss_mb  MB  peak RSS of a cold op: suite, analysis: the first cold
//	                 pass, the only one with a fresh process's memory;
//	                 point: the median over the 12 points
//
// The report also prints latency_p50_s (point: the median point latency,
// over 12 points), sim_minstr_per_s (simulated instructions of every
// simulation run ÷ wall_s, host throughput; suite and point) and
// failed_frac. They are not in BENCHMARK.json: latency_p50_s and
// sim_minstr_per_s do not exist on every workload, and failed_frac is 0
// on a correct run; the gate on it is "correct".
//
// # Per-layer metrics
//
// A traced run (-trace 1) records spans from the benchmark's own code at
// the boundaries of the layers it calls: experiment boundaries through
// the RunSelected progress callback; the engine observer's simulation,
// trace and grammar start/done events; a store.Backend wrapper around
// the local store; store.Open; the job client (submit, each NDJSON event
// as it arrives, the final status); and each op. A span has a name,
// start, end, parent and the op it belongs to. Spans stay in memory and
// are written to .bench_build/spans-<workload>-seed<n>.json at exit.
// Self time is a span's duration minus the part of it its children
// cover; the run prints a self-time table per phase and layer. Nothing
// inside the program is instrumented.
//
// The ledger (cold figures are totals per cold pass, or over the point
// sequence; warm and submit figures are means per op; a layer a workload
// does not exercise reads 0), with the end-to-end metric each should
// move, written down before any measurement:
//
//	sim.runs, sim.busy_s, sim.ns_per_event,      sim (+cpu, cache, branch, uncore, prefetch, core):
//	sim.busy_s.{none,fdip,discontinuity,tifs,    suite wall_s, point wall_s; flat on analysis and
//	perfect,probabilistic}                       on every warm or submit op
//	cpu.block_fetches, cpu.misses,               modelled components (simulated counts summed over
//	cpu.fetch_stall_cycles, prefetch.issued,     every sim.Result the cold phase produced): none.
//	prefetch.useful_ratio, prefetch.discards,    They are the work host time divides by, and must
//	tifs.index_lookups, tifs.index_miss_ratio,   be identical between a commit and any perf or
//	uncore.l2_misses, uncore.bank_wait_cycles    simplicity change of it
//	engine.sims_run.{cold,warm,submit},          engine: suite wall_s (the tail of each
//	engine.store_hits, engine.grammar_builds,    experiment's batch), point wall_s (the idle
//	engine.worker_util (busy span time ÷         baseline tail). sims_run.warm and .submit must
//	wall ÷ 2)                                    be 0
//	trace.extractions, trace.busy_s,             trace (+workload, cfg, isa): analysis wall_s;
//	trace.ns_per_event                           under 3% of suite wall_s
//	sequitur.builds, sequitur.busy_s             sequitur (the engine's grammar tier): analysis wall_s
//	experiments.<id>.s (13), experiments.self_s  experiments (+analysis, stats): the suite wall_s
//	                                             breakdown; self_s (replays and rendering per warm
//	                                             pass) moves warm_s on suite and analysis
//	store.open_s, store.gets,                    store: puts move cold wall_s (analysis more than
//	store.get_hit_ratio, store.get_s,            suite); open and gets move warm_s and submit_s
//	store.puts, store.put_s, store.log_bytes
//	sweepd.submit_s, sweepd.queue_s,             sweepd: submit_s only
//	sweepd.run_s, sweepd.events,
//	sweepd.output_bytes
//	tracing.overhead_s, tracing.spans            the traced run's wall_s minus that of an untraced
//	                                             run of the same seed, made first in a child
//	                                             process; the number of spans
//
// sim.ns_per_event divides by measured (post-warmup) events; the
// warmup's events are simulated too. worker_util counts each trace and
// grammar span as one busy worker, though each fans its per-core work
// out over both workers inside the span. tracing.overhead_s is a
// difference of two single runs, so host noise of a few percent of
// wall_s swamps the cost of the spans themselves.
//
// # Comparing commits
//
// -compare reads result sets (the JSONL records runs append) and prints,
// per workload and end-to-end metric, the median and quartiles of each
// set (as Python's statistics.quantiles(n=4) computes them), the
// wins over run pairs, and a verdict: improved when the new commit wins
// at least nine tenths of the pairs and the medians differ by more than
// the old set's interquartile range; unresolved when either set's
// spread exceeds the metric's bound, unless every new run beats every
// old one; regressed when the new median is worse by more than the
// bound; within bound otherwise. baseline/ holds the parent commit's
// result set and its summary.
//
// # Left unmeasured
//
//   - The remotestore client: no single-host user path uses it.
//   - shard leases and netfault: they need several processes.
//   - -intra and -spec at non-default settings: both are off by default.
package main
