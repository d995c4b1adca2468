// Command tifssim runs a single simulation configuration and prints a
// detailed report: cycles, IPC, fetch-stall share, coverage, discards,
// and the L2 traffic ledger.
//
// Usage:
//
//	tifssim -workload OLTP-Oracle -scale medium -mechanism tifs-virtualized
//
// With -submit, the simulation runs on a tifsserve sweep service
// instead of locally; the report bytes are identical either way, and a
// warm server answers from its result store without simulating:
//
//	tifssim -workload OLTP-Oracle -mechanism tifs-virtualized -submit http://host:8419
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tifs"
)

// exitInterrupted is the exit code after a clean signal-triggered
// shutdown (128+SIGINT, the shell convention).
const exitInterrupted = 130

// signalContext returns a context cancelled on the first SIGINT or
// SIGTERM so the simulation batch stops at a clean boundary and the
// store flushes and closes. A second signal force-quits immediately.
func signalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "tifssim: interrupt — stopping (send again to force quit)")
		cancel()
		<-ch
		fmt.Fprintln(os.Stderr, "tifssim: second interrupt — forcing quit")
		os.Exit(exitInterrupted)
	}()
	return ctx, cancel
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "OLTP-DB2", "workload name")
		scaleName = flag.String("scale", "small", "small|medium|full")
		mechName  = flag.String("mechanism", "tifs-dedicated", "next-line|fdip|discontinuity|tifs-unbounded|tifs-dedicated|tifs-virtualized|perfect")
		events    = flag.Uint64("events", 0, "per-core events (0 = scale default)")
		cores     = flag.Int("cores", 4, "number of cores")
		baseline  = flag.Bool("baseline", true, "also run the next-line baseline and report speedup")
		cacheDir  = flag.String("cache-dir", "", "persistent result store directory (empty = disabled)")
		remote    = flag.String("remote", "", "tifsserve base URL (e.g. http://host:8419); remote result store instead of -cache-dir")
		submit    = flag.String("submit", "", "submit the simulation as a job to a tifsserve URL; the server executes it and returns the report")
		storeGC   = flag.Bool("store-gc", false, "compact the -cache-dir store (fold segments, drop dead bytes) and exit")
	)
	flag.Parse()

	if *storeGC {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "-store-gc requires -cache-dir")
			return 2
		}
		st, err := tifs.CompactResultStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(os.Stderr, st)
		return 0
	}

	if *cores < 0 || *cores > tifs.MaxCores {
		fmt.Fprintf(os.Stderr, "-cores %d: want 0 (the default 4) to %d\n", *cores, tifs.MaxCores)
		return 2
	}
	spec, err := tifs.WorkloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	scale, err := tifs.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	mech, err := tifs.MechanismByName(*mechName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ctx, stop := signalContext()
	defer stop()

	if *submit != "" {
		return runSubmit(ctx, *submit, *name, *mechName, *scaleName, *baseline, *events, *cores)
	}

	// Run the mechanism and (when requested) its next-line baseline as one
	// batch so they execute concurrently on multi-core hosts. With
	// -cache-dir (or -remote), previously simulated configurations load
	// from the persistent store instead of re-running.
	var st tifs.StoreBackend
	switch {
	case *remote != "":
		rs := tifs.DialRemoteStore(ctx, *remote, nil)
		defer func() {
			fmt.Fprintln(os.Stderr, rs.Stats())
			rs.Close()
		}()
		st = rs
	case *cacheDir != "":
		local, err := tifs.OpenResultStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			fmt.Fprintln(os.Stderr, local.Stats())
			local.Close()
		}()
		st = local
	}
	jobs := []tifs.SimJob{{Spec: spec, Scale: scale, Config: tifs.SimConfig{
		Cores: *cores, EventsPerCore: *events, Mechanism: mech,
	}}}
	wantBaseline := *baseline && mech.Kind != "none"
	if wantBaseline {
		jobs = append(jobs, tifs.SimJob{Spec: spec, Scale: scale, Config: tifs.SimConfig{
			Cores: *cores, EventsPerCore: *events, Mechanism: tifs.NextLineOnly(),
		}})
	}
	eng := tifs.NewSimEngine(0, st)
	defer eng.Close()
	results := eng.RunAll(ctx, jobs)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tifssim: interrupted — no report (partial results, if any, were saved to the cache)")
		return exitInterrupted
	}
	// Render through the shared report so local and -submit output are
	// byte-identical by construction.
	var base *tifs.SimResult
	if wantBaseline {
		base = &results[1]
	}
	fmt.Print(tifs.SimReport(results[0], base, scale, *cores))
	return 0
}

// runSubmit posts the simulation to a sweep service's job API and
// prints the server-rendered report.
func runSubmit(ctx context.Context, url, workload, mechanism, scale string, baseline bool, events uint64, cores int) int {
	c := tifs.DialJobService(url, nil)
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	c.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	st, err := tifs.SubmitJob(ctx, c, tifs.JobRequest{
		Workload: workload, Mechanism: mechanism, Baseline: baseline,
		Scale: scale, Events: events, Cores: cores,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tifssim:", err)
		if ctx.Err() != nil {
			return exitInterrupted
		}
		return 1
	}
	if st.Deduped {
		fmt.Fprintf(os.Stderr, "tifssim: job %s deduplicated — joined identical in-flight work (state %s)\n", st.ID, st.State)
	} else {
		fmt.Fprintf(os.Stderr, "tifssim: job %s accepted\n", st.ID)
	}
	final, err := tifs.WatchJob(ctx, c, st.ID, nil)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "tifssim: interrupted — the job keeps running server-side; resubmit the same flags to rejoin it")
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "tifssim:", err)
		return 1
	}
	if final.State != tifs.JobDone {
		fmt.Fprintf(os.Stderr, "tifssim: job %s %s: %s\n", final.ID, final.State, final.Error)
		return 1
	}
	fmt.Print(final.Output)
	fmt.Fprintf(os.Stderr, "tifssim: job %s done — simulations run: %d, store hits: %d\n",
		final.ID, final.SimsRun, final.StoreHits)
	return 0
}
