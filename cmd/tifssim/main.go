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
	"flag"
	"fmt"
	"os"
	"strings"

	"tifs"
	"tifs/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "OLTP-DB2", "workload name")
		scaleName = flag.String("scale", "small", "small|medium|full")
		mechName  = flag.String("mechanism", "tifs-dedicated", strings.Join(tifs.MechanismNames(), "|"))
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
		return cli.StoreGC(*cacheDir)
	}
	if !cli.CoresOK(*cores) {
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
	ctx, stop := cli.SignalContext()
	defer stop()

	if *submit != "" {
		return cli.Submit(ctx, *submit, nil, tifs.JobRequest{
			Workload: *name, Mechanism: *mechName, Baseline: *baseline,
			Scale: *scaleName, Events: *events, Cores: *cores,
		})
	}

	// With -cache-dir (or -remote, which replaces it), previously
	// simulated configurations load from the persistent store instead of
	// re-running.
	loc := tifs.StoreLocation{Dir: *cacheDir}
	if *remote != "" {
		loc = tifs.StoreLocation{URL: *remote}
	}
	st, err := tifs.OpenStore(ctx, loc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer cli.CloseStore(st)
	// The sweep service renders -submit jobs through the same RunReport,
	// so local and -submit output are byte-identical by construction.
	eng := tifs.NewSimEngine(0, st)
	defer eng.Close()
	report := eng.RunReport(ctx, tifs.SimJob{Spec: spec, Scale: scale, Config: tifs.SimConfig{
		Cores: *cores, EventsPerCore: *events, Mechanism: mech,
	}}, *baseline)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tifssim: interrupted — no report (partial results, if any, were saved to the cache)")
		return cli.ExitInterrupted
	}
	fmt.Print(report)
	return 0
}
