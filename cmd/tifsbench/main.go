// Command tifsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	tifsbench -experiment fig13 -scale medium
//	tifsbench -experiment all -scale small -workloads OLTP-DB2,Web-Apache
//	tifsbench -experiment all -scale small -cache-dir ~/.cache/tifs
//	tifsbench -list
//
// With -cache-dir, simulation results and miss traces persist in a
// content-addressed store; re-running the same experiments loads them
// instead of re-simulating, printing byte-identical tables in a fraction
// of the time. A store summary goes to stderr so stdout stays clean.
//
// -parallelism N bounds how many simulations, and how many of an
// analysis figure's workloads, run at once (0 = GOMAXPROCS, 1 =
// serial). Each simulation runs on one goroutine; output bytes are
// identical at every setting, so it composes with every mode below.
//
// Sharded sweeps split one experiment grid across processes or machines
// that share a -cache-dir (for machines: on a shared filesystem):
//
//	tifsbench -experiment all -scale full -cache-dir /shared/tifs -shard 0/4   # one worker
//	tifsbench -experiment all -scale full -cache-dir /shared/tifs -shard auto/4 # self-assigning worker
//	tifsbench -experiment all -scale full -cache-dir /shared/tifs -merge        # assemble the output
//	tifsbench -cache-dir /shared/tifs -store-gc                                 # compact afterwards
//
// Workers fill the store cooperatively and print no tables. -merge is a
// plain run that requires the shared store: it first checks the store
// against the sweep grid, renders output byte-identical to a
// single-process run from store hits alone, and says on stderr whether
// anything had to be re-computed. -store-gc folds the per-worker segment
// files back into one log and reclaims dead bytes.
//
// With -remote, the store and the lease coordination live behind a
// tifsserve URL instead of a shared directory — workers on different
// machines need share nothing but the URL:
//
//	tifsserve -dir /var/tifs/store -addr :8419                                # on the store host
//	tifsbench -experiment all -scale full -remote http://host:8419 -shard auto/4
//	tifsbench -experiment all -scale full -remote http://host:8419 -merge
//
// Remote outages degrade, never block: workers compute locally, queue
// write-backs, and reconcile when the server returns; output stays
// byte-identical regardless. -netfault injects deterministic network
// faults (drops, latency, 5xx, torn bodies) into the remote client for
// testing that machinery.
//
// With -submit, the whole run happens on the server instead: the
// experiment selection is posted to tifsserve's job API, progress
// events stream to stderr, and the finished tables — byte-identical to
// a local run — print to stdout. Identical concurrent submissions
// single-flight onto one server-side execution, and a warm server
// answers from its store without simulating at all:
//
//	tifsbench -experiment fig13 -scale small -submit http://host:8419
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"tifs"
	"tifs/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		scaleName  = flag.String("scale", "small", "workload scale: small|medium|full")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: all six)")
		events     = flag.Uint64("events", 0, "override per-core event budget (0 = scale default)")
		cores      = flag.Int("cores", 4, "number of cores")
		parallel   = flag.Int("parallelism", 0, "concurrent simulations and analysis workloads (0 = GOMAXPROCS, 1 = serial)")
		cacheDir   = flag.String("cache-dir", "", "persistent result store directory (empty = disabled)")
		remote     = flag.String("remote", "", "tifsserve base URL (e.g. http://host:8419); replaces -cache-dir for runs, -shard, and -merge")
		submit     = flag.String("submit", "", "submit the run as a job to a tifsserve URL and stream its progress; the server executes it")
		netFault   = flag.String("netfault", "", "inject deterministic network faults into -remote traffic: 'mode:method:path:nth[:times],...' (testing)")
		shardSpec  = flag.String("shard", "", "run as a sweep worker: 'i/N' (0-based) or 'auto/N'; requires -cache-dir or -remote")
		merge      = flag.Bool("merge", false, "assemble experiment output from the shared store after shard workers finish; requires -cache-dir or -remote")
		storeGC    = flag.Bool("store-gc", false, "compact the -cache-dir store (fold segments, drop dead bytes) and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range tifs.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Description)
		}
		return 0
	}

	if *storeGC {
		return cli.StoreGC(*cacheDir)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	scale, err := tifs.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !cli.CoresOK(*cores) {
		return 2
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	o := tifs.ExperimentOptions{Context: ctx, Scale: scale, Events: *events, Cores: *cores}
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			name := strings.TrimSpace(w)
			if _, err := tifs.WorkloadByName(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			o.Workloads = append(o.Workloads, name)
		}
	}
	// ids selects the sweep grid: nil = the full registry.
	var ids []string
	if *experiment != "all" {
		ids = []string{*experiment}
	}

	// httpClient carries all -remote traffic; -netfault wraps its
	// transport in the deterministic fault injector.
	var httpClient *http.Client
	if *netFault != "" {
		if *remote == "" && *submit == "" {
			fmt.Fprintln(os.Stderr, "-netfault requires -remote or -submit")
			return 2
		}
		rt, err := tifs.NetFaultTransport(*netFault, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		httpClient = &http.Client{Transport: rt}
	}

	if *submit != "" {
		return cli.Submit(ctx, *submit, httpClient, tifs.JobRequest{
			Experiments: ids, Workloads: o.Workloads,
			Scale: fmt.Sprint(o.Scale), Events: o.Events, Cores: o.Cores,
		})
	}
	// -remote replaces -cache-dir for runs, -shard, and -merge.
	loc := tifs.StoreLocation{Dir: *cacheDir}
	if *remote != "" {
		loc = tifs.StoreLocation{URL: *remote, HTTPClient: httpClient}
	}
	if *shardSpec != "" {
		return runShardWorker(ctx, *shardSpec, loc, *parallel, ids, o)
	}
	return runExperiments(ctx, loc, *parallel, *merge, ids, o)
}

// runExperiments renders the selected experiments on one engine over the
// store at loc, if any. A -merge pass requires the store: it is the one
// the shard workers filled. With full shard coverage every grid point is
// a store hit and the pass takes seconds; anything a failed worker left
// missing is re-computed here (correct output either way) and reported
// so the operator knows.
func runExperiments(ctx context.Context, loc tifs.StoreLocation, parallelism int, merge bool, ids []string, o tifs.ExperimentOptions) int {
	if merge && loc.Dir == "" && loc.URL == "" {
		fmt.Fprintln(os.Stderr, "-merge requires -cache-dir or -remote (the store the shard workers filled)")
		return 2
	}
	st, err := tifs.OpenStore(ctx, loc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer cli.CloseStore(st)
	var missingJobs, missingTraces int
	if merge {
		// Preflight coverage against the grid itself: the engine's counters
		// alone would miss a re-run trace extraction.
		grid, err := tifs.ExperimentGrid(ids, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		jobs, traces := tifs.MissingFromStore(st, grid)
		missingJobs, missingTraces = len(jobs), len(traces)
	}

	// An explicit engine (instead of the process-wide default) so the run
	// can account for its work: zero simulations and zero grammar builds
	// on a warm store is the observable proof the persistence tiers
	// answered everything.
	eng := tifs.NewSimEngine(parallelism, st)
	o.Engine = eng
	defer eng.Close()
	defer func() {
		fmt.Fprintf(os.Stderr, "engine: %d simulations run, %d store hits, %d grammar builds\n",
			eng.SimulationsRun(), eng.StoreHits(), eng.GrammarBuilds())
	}()

	out, err := tifs.RunExperiments(ids, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Print(out)
	if merge {
		if missingJobs+missingTraces > 0 {
			fmt.Fprintf(os.Stderr, "merge: %d simulations and %d trace extractions were missing from the store and were re-computed (did a shard worker die?)\n",
				missingJobs, missingTraces)
		} else {
			fmt.Fprintf(os.Stderr, "merge: assembled entirely from the store (%d hits)\n", eng.StoreHits())
		}
	}
	return cli.Status(ctx)
}

// runShardWorker executes one sweep worker: shard "i/N" pins a shard,
// "auto/N" claims shards through the lease manifest until none remain.
// Workers print per-shard reports to stderr and no tables at all — the
// -merge pass renders output once every shard is done. The store and the
// lease manifest live at loc: a shared directory or a tifsserve URL.
func runShardWorker(ctx context.Context, spec string, loc tifs.StoreLocation, parallelism int, ids []string, o tifs.ExperimentOptions) int {
	if loc.Dir == "" && loc.URL == "" {
		fmt.Fprintln(os.Stderr, "-shard requires -cache-dir or -remote (the store all workers share)")
		return 2
	}
	sel, countStr, ok := strings.Cut(spec, "/")
	count, countErr := strconv.Atoi(countStr)
	if !ok || countErr != nil || count < 1 {
		fmt.Fprintf(os.Stderr, "bad -shard %q: want 'i/N' (0-based) or 'auto/N'\n", spec)
		return 2
	}
	grid, err := tifs.ExperimentGrid(ids, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "sweep grid: %d simulations, %d trace extractions across %d shards\n",
		len(grid.Jobs), len(grid.Traces), count)

	if sel == "auto" {
		reports, err := tifs.ShardedSweepAuto(ctx, loc, count, grid, parallelism)
		for _, rep := range reports {
			fmt.Fprintln(os.Stderr, rep)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tifsbench: interrupted — lease released; stored results are kept, a fresh worker resumes where this one stopped")
			return cli.ExitInterrupted
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "worker done: ran %d shard(s)\n", len(reports))
		return 0
	}
	index, err := strconv.Atoi(sel)
	if err != nil || index < 0 || index >= count {
		fmt.Fprintf(os.Stderr, "bad -shard %q: index must be in [0,%d)\n", spec, count)
		return 2
	}
	rep, err := tifs.ShardedSweep(ctx, loc, index, count, grid, parallelism)
	if ctx.Err() != nil {
		// Partial report: the counters below say how far it got before
		// the interrupt; everything counted is already in the store.
		fmt.Fprintf(os.Stderr, "%s (interrupted)\n", rep)
		fmt.Fprintln(os.Stderr, "tifsbench: interrupted — lease released; stored results are kept, a fresh worker resumes where this one stopped")
		return cli.ExitInterrupted
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, rep)
	return 0
}
