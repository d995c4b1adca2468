// Package tifs is the public API of the Temporal Instruction Fetch
// Streaming reproduction (Ferdman et al., MICRO-41 2008).
//
// It exposes the pieces a downstream user composes:
//
//   - the six Table-I commercial server workload models
//     (Workloads, BuildWorkload);
//   - the L1-I miss-trace machinery and the paper's miss definition
//     (ExtractMisses);
//   - the offline SEQUITUR opportunity analyses of Figs. 3-6
//     (Categorize, Heuristics, StreamLengths);
//   - the cycle-accounted CMP simulator with pluggable prefetchers —
//     next-line baseline, FDIP, the TIFS variants, and bounds
//     (Simulate, mechanism constructors);
//   - the memoizing engine that batches simulations, optionally over a
//     persistent local or remote result store (NewSimEngine, OpenStore);
//   - every evaluation experiment as a named runner
//     (Experiments, RunExperiments), and sharded sweeps of their grid
//     (ExperimentGrid, ShardedSweep, ShardedSweepAuto).
//
// Each job has one entry point. A batch of simulations is
// NewSimEngine(parallelism, store).RunAll(ctx, jobs); an experiment run
// hands such an engine to ExperimentOptions.Engine.
//
// See examples/quickstart for a three-call tour, and the README's
// "Substitutions" section for what stands in for the paper's
// full-system trace infrastructure.
package tifs

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"tifs/internal/analysis"
	"tifs/internal/core"
	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/isa"
	"tifs/internal/netfault"
	"tifs/internal/remotestore"
	"tifs/internal/shard"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/sweepd"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// Re-exported workload types.
type (
	// WorkloadSpec describes one Table-I workload model.
	WorkloadSpec = workload.Spec
	// Workload is an instantiated workload (program + per-core sources).
	Workload = workload.Generated
	// Scale selects workload size (small, medium, full).
	Scale = workload.Scale
)

// Scales.
const (
	ScaleSmall  = workload.ScaleSmall
	ScaleMedium = workload.ScaleMedium
	ScaleFull   = workload.ScaleFull
)

// MaxCores is the widest CMP a simulation accepts.
const MaxCores = sim.MaxCores

// Workloads returns the six Table-I workload specifications.
func Workloads() []WorkloadSpec { return workload.Suite() }

// WorkloadByName finds a workload ("OLTP-DB2", "OLTP-Oracle", "DSS-Qry2",
// "DSS-Qry17", "Web-Apache", "Web-Zeus").
func WorkloadByName(name string) (WorkloadSpec, error) {
	s, ok := workload.ByName(name)
	if !ok {
		return WorkloadSpec{}, fmt.Errorf("tifs: unknown workload %q (have %v)", name, workload.Names())
	}
	return s, nil
}

// ParseScale converts "small", "medium", or "full".
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// BuildWorkload instantiates a workload for the given core count.
func BuildWorkload(spec WorkloadSpec, scale Scale, cores int) *Workload {
	return workload.Build(spec, scale, cores)
}

// MissRecord is one filtered L1-I miss (the paper's Section 4.1
// definition: not satisfied by the 64 KB 2-way L1-I nor the
// two-block-ahead next-line prefetcher).
type MissRecord = trace.MissRecord

// Block is a 64-byte cache block number.
type Block = isa.Block

// ExtractMisses runs the miss filter over up to maxEvents events of one
// core's fetch stream.
func ExtractMisses(w *Workload, coreID int, maxEvents uint64) []MissRecord {
	return trace.ExtractMisses(w.Sources()[coreID], maxEvents, trace.ExtractorConfig{})
}

// MissBlocks projects miss records to their block numbers.
func MissBlocks(recs []MissRecord) []Block { return trace.Blocks(recs) }

// Categorization is the SEQUITUR opportunity accounting of Fig. 3/4.
type Categorization = analysis.Categorization

// Categorize classifies every miss in the block sequence as Opportunity,
// Head, New, or Non-repetitive.
func Categorize(blocks []Block) *Categorization { return analysis.Categorize(blocks) }

// HeuristicResult reports one Fig. 6 lookup policy's coverage.
type HeuristicResult = analysis.HeuristicResult

// Heuristics evaluates the First/Digram/Recent/Longest stream-lookup
// policies on a miss-block sequence.
func Heuristics(blocks []Block) []HeuristicResult {
	return analysis.EvaluateHeuristics(blocks)
}

// Simulation types.
type (
	// SimConfig configures one simulation run.
	SimConfig = sim.Config
	// SimResult is a run's outcome (cycles, coverage, traffic, ...).
	SimResult = sim.Result
	// Mechanism selects the instruction prefetcher under test.
	Mechanism = sim.Mechanism
	// TIFSConfig parameterizes the TIFS hardware (IML size,
	// virtualization, SVB, lookahead, end-of-stream, failure injection).
	TIFSConfig = core.Config
)

// Mechanism constructors.
var (
	// NextLineOnly is the paper's baseline system.
	NextLineOnly = sim.Baseline
	// FDIP is fetch-directed instruction prefetching (Reinman et al.).
	FDIP = sim.FDIP
	// Perfect is the instant-streaming upper bound.
	Perfect = sim.Perfect
	// Probabilistic is the Fig. 1 coverage-sweep mechanism.
	Probabilistic = sim.Probabilistic
	// Discontinuity is the discontinuity predictor (Spracklen et al.).
	Discontinuity = sim.Discontinuity
	// TIFS wraps a TIFSConfig as a mechanism.
	TIFS = sim.TIFS
)

// TIFS configurations from the paper's Fig. 13.
var (
	// TIFSUnbounded has an unbounded IML.
	TIFSUnbounded = core.UnboundedConfig
	// TIFSDedicated uses 8K dedicated IML entries per core (156 KB total
	// on 4 cores).
	TIFSDedicated = core.DedicatedConfig
	// TIFSVirtualized stores the IML in the L2 data array.
	TIFSVirtualized = core.VirtualizedConfig
)

// Simulate runs one configuration of the 4-core CMP over the workload.
func Simulate(spec WorkloadSpec, scale Scale, cfg SimConfig) SimResult {
	return sim.Run(spec, scale, cfg)
}

// SimRunner is a reusable simulation machine: it recycles the caches,
// predictors, TIFS structures, and workload executors between runs, so
// steady-state repeated runs perform zero heap allocations. The returned
// Result's PerCore and TIFS fields are valid until the next Run call. A
// SimRunner is not safe for concurrent use.
type SimRunner = sim.Runner

// NewSimRunner creates an empty simulation machine pool of one.
func NewSimRunner() *SimRunner { return sim.NewRunner() }

// SimJob pairs a workload and scale with a simulation configuration for
// batched execution.
type SimJob = engine.Job

// ResultStore is a persistent, content-addressed cache of simulation
// results and miss traces, shared across processes. See OpenResultStore.
type ResultStore = store.Store

// ResultStoreStats summarizes store activity (hits, misses, appends).
type ResultStoreStats = store.Stats

// OpenResultStore opens (creating if needed) a result store rooted at
// dir. Attach it to an engine with NewSimEngine, and that engine to
// ExperimentOptions.Engine, to skip already-simulated grid points across
// CLI invocations. Stores written by an incompatible format version are
// discarded on open; corrupt or truncated entries fall back to
// simulation, never to wrong results.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// StoreCompaction reports what a result-store GC pass reclaimed.
type StoreCompaction = store.CompactStats

// CompactResultStore garbage-collects a result store directory: it
// folds the per-writer segment files a sharded sweep leaves behind into
// the primary log, drops shadowed duplicates and stale-format files, and
// reclaims their space. It refuses to run while a writer holds the
// primary, and skips segments whose writers are still alive; a crash at
// any point leaves a store that opens cleanly. Run it after large sweeps
// on a long-lived cache directory.
func CompactResultStore(dir string) (StoreCompaction, error) { return store.Compact(dir) }

// TraceJob names one per-core miss-trace extraction in a sweep grid.
type TraceJob = engine.TraceJob

// SweepGrid is the complete work list of an experiment sweep: every
// simulation and miss-trace extraction the selected experiments perform.
type SweepGrid = shard.Grid

// ExperimentGrid enumerates the deduplicated sweep grid of the named
// experiments (all of them when ids is empty) under the given options,
// without running anything. The enumeration is deterministic, so every
// worker of a sharded sweep derives the identical grid.
func ExperimentGrid(ids []string, o ExperimentOptions) (SweepGrid, error) {
	jobs, traces, err := experiments.Grid(ids, o)
	if err != nil {
		return SweepGrid{}, fmt.Errorf("tifs: %w", err)
	}
	return SweepGrid{Jobs: jobs, Traces: traces}, nil
}

// ShardReport summarizes one shard worker's pass over its slice of a
// sweep.
type ShardReport = shard.Report

// StoreLocation names a result store — the one a run reads and fills,
// or the one a sharded sweep's workers share: either a store directory
// (Dir; for several machines, on a shared filesystem) or a tifsserve
// base URL (URL), never both. OpenStore opens it. Over a URL, blobs
// travel through the remote store client, the lease manifest lives on
// the server and is updated by compare-and-swap, and HTTPClient (nil =
// http.DefaultClient) carries the traffic, so a fault-injecting
// transport (NetFaultTransport) can stand in.
type StoreLocation struct {
	Dir, URL   string
	HTTPClient *http.Client
}

// OpenStore opens the store at loc as a backend for an engine or a
// sweep; it is the one place a location becomes a store. An empty
// location gives a nil backend (no store). A directory opens (creating
// if needed) the local store there; close it to release its lock. A URL
// dials the remote client over loc.HTTPClient with no I/O, as
// DialRemoteStore does; close it to flush queued write-backs. A location
// naming both is an error, returned before anything opens.
func OpenStore(ctx context.Context, loc StoreLocation) (StoreBackend, error) {
	switch {
	case loc.Dir != "" && loc.URL != "":
		return nil, fmt.Errorf("tifs: a store location names a directory or a URL, not both: got Dir %q and URL %q", loc.Dir, loc.URL)
	case loc.URL != "":
		return remotestore.NewClient(ctx, loc.URL, loc.HTTPClient), nil
	case loc.Dir != "":
		st, err := store.Open(loc.Dir)
		if err != nil {
			return nil, fmt.Errorf("tifs: %w", err)
		}
		return st, nil
	}
	return nil, nil
}

// ShardedSweep runs shard index of count over the grid, as one worker of
// a multi-process or multi-machine sweep over the store at loc, running
// at most parallelism simulations at once (0 = GOMAXPROCS). The grid
// partitions by the SHA-256 of each grid point's canonical key, so all
// workers agree on ownership without talking to each other; the lease
// manifest additionally records the claim so peers can detect and take
// over a dead worker's shard. Grid points already present in the store
// are skipped. After every shard completes, a merge pass — any normal
// experiment run on an engine over the same store, e.g. tifsbench
// -merge — assembles output byte-identical to a single-process run from
// store hits alone.
//
// Over a URL, store operations degrade under server outages (compute
// locally, queue write-backs, reconcile on recovery); lease coordination
// deliberately does not — an outage longer than the lease TTL surfaces
// as a lost lease, exactly as it must.
//
// Cancelling ctx aborts the shard at the next batch boundary: the lease
// is released (so a fresh worker can claim the shard immediately rather
// than waiting out the TTL), everything simulated so far stays in the
// store, and the partial report returns alongside ctx's error.
func ShardedSweep(ctx context.Context, loc StoreLocation, index, count int, g SweepGrid, parallelism int) (ShardReport, error) {
	reports, err := sweep(ctx, loc, false, index, count, g, parallelism)
	if len(reports) == 0 {
		return ShardReport{}, err
	}
	return reports[0], err
}

// ShardedSweepAuto is ShardedSweep with lease-based self-assignment: the
// worker claims unclaimed (or expired) shards one after another until
// none remain, returning a report per shard it ran — after a failure,
// the failed shard's partial report last. Launch N such workers against
// one location to run a whole sweep with no manual shard numbering.
func ShardedSweepAuto(ctx context.Context, loc StoreLocation, count int, g SweepGrid, parallelism int) ([]ShardReport, error) {
	return sweep(ctx, loc, true, 0, count, g, parallelism)
}

// sweep is the one claim loop under ShardedSweep and ShardedSweepAuto:
// claim a shard (index, or with auto any claimable one), run it under
// the lease, hand the lease back after a failure, and mark the shard
// done after a success. A pinned index claims once; auto claims until no
// shard is left. The lease manifest lives beside the store: in the
// directory, or on the server at the URL.
func sweep(ctx context.Context, loc StoreLocation, auto bool, index, count int, g SweepGrid, parallelism int) ([]ShardReport, error) {
	if loc.Dir == "" && loc.URL == "" {
		return nil, errors.New("tifs: a sharded sweep needs a store location (Dir or URL)")
	}
	st, err := OpenStore(ctx, loc)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var manifest shard.ManifestBackend = &shard.FileManifest{Dir: loc.Dir}
	if loc.URL != "" {
		manifest = remotestore.NewManifestClient(loc.URL, loc.HTTPClient)
	}
	c := shard.NewCoordinator(manifest, g, count)
	owner := shard.HostPID()
	var reports []ShardReport
	for {
		i, ok := index, true
		if auto {
			if err := ctx.Err(); err != nil {
				return reports, err
			}
			i, ok, err = c.ClaimAny(owner)
		} else {
			err = c.Claim(index, owner)
		}
		if err != nil {
			return reports, fmt.Errorf("tifs: %w", err)
		}
		if !ok {
			return reports, nil
		}
		rep, err := shard.Run(ctx, st, g, i, count, parallelism, func() error {
			return c.Renew(i, owner)
		}, c.RenewInterval(), c.TTL)
		reports = append(reports, rep)
		if err != nil {
			// Hand the shard back — unless the run died because the lease
			// was (or is presumed) lost, in which case a successor may
			// already own it and a release would clobber the takeover; the
			// no-op lets the old claim expire on its TTL instead.
			// Best-effort either way.
			c.ReleaseAfter(err, i, owner)
			return reports, fmt.Errorf("tifs: %w", err)
		}
		if err := c.Complete(i); err != nil {
			return reports, fmt.Errorf("tifs: %w", err)
		}
		if !auto {
			return reports, nil
		}
	}
}

// MissingFromStore reports the grid points absent from a store backend
// (local or remote) — the preflight for a merge pass. Empty results mean
// the merge will assemble entirely from store hits.
func MissingFromStore(st StoreBackend, g SweepGrid) (jobs []SimJob, traces []TraceJob) {
	return shard.Missing(st, g)
}

// StoreBackend is the narrow interface the engine and sweep machinery
// require of a result store: typed get/put/has by canonical key, under
// the store's one-way defensiveness contract (a get may miss for any
// reason — the caller recomputes — but never returns different bytes).
// *ResultStore is the local implementation; RemoteStore the HTTP one.
type StoreBackend = store.Backend

// RemoteStore is a result-store backend served by a tifsserve process
// over HTTP, wrapped in the full robustness stack: per-operation
// deadlines, capped-backoff retries on transient network faults, hedged
// reads, and a circuit breaker that degrades to local computation —
// queueing write-backs and reconciling them when the server recovers —
// so a remote outage costs time, never correctness and never progress.
type RemoteStore = remotestore.Client

// RemoteStoreStats counts a remote store client's network activity:
// hits, retries, hedges, breaker opens, and queued/flushed/dropped
// write-backs.
type RemoteStoreStats = remotestore.Stats

// DialRemoteStore connects to a tifsserve base URL (e.g.
// "http://host:8419"). Every store operation, including retry backoff
// sleeps and queued write-back flushes, aborts promptly once ctx is
// cancelled, so an interrupted worker stops waiting on a dead server.
// httpClient nil uses http.DefaultClient; pass a custom client to set
// transport options or inject faults (NetFaultTransport). Dialing
// performs no I/O — a dead server surfaces as degraded operation, not a
// constructor error; use Ping to probe. Close the client to flush queued
// write-backs.
func DialRemoteStore(ctx context.Context, base string, httpClient *http.Client) *RemoteStore {
	return remotestore.NewClient(ctx, base, httpClient)
}

// NetFaultTransport builds a deterministic fault-injecting HTTP
// transport from a comma-separated rule spec, for exercising the remote
// store's failure paths reproducibly (tifsbench -netfault, CI). Each
// rule reads mode:method:path-substring:nth[:times] with modes drop
// (reset the connection), torn (cut the response body mid-read),
// latency<duration> (delay, honoring cancellation), or a bare status
// code (synthesize that response); nth is the 1-based matching request
// the fault first fires on, times repeats it (-1 = forever). Example:
//
//	drop:GET:/v1/blob:1,503:PUT:/v1/blob:2:3,latency500ms:GET:/v1/manifest:1
func NetFaultTransport(spec string, inner http.RoundTripper) (http.RoundTripper, error) {
	rules, err := netfault.ParseRules(spec)
	if err != nil {
		return nil, fmt.Errorf("tifs: %w", err)
	}
	return netfault.New(inner, rules...), nil
}

// SimEngine is the concurrency-bounded, memoizing simulation scheduler
// experiments run on. RunAll(ctx, jobs) simulates a batch across the
// engine's workers and returns the results in job order; duplicate jobs
// run once, and output is identical to running each job serially.
// Cancelling ctx stops scheduling and leaves unfinished slots as zero
// Results, so treat the batch as invalid once ctx is cancelled.
// RunReport(ctx, job, baseline) renders one point's report, the bytes
// tifssim prints and the sweep service returns. Supplying one engine to several experiment runs
// (ExperimentOptions.Engine) shares memoized simulations between them;
// its counters say how much work a run actually performed. Close it when
// done to release its pooled simulation machines.
type SimEngine = engine.Engine

// NewSimEngine creates an engine running at most parallelism
// simulations at once (0 = GOMAXPROCS, 1 = serial), optionally backed by
// a persistent store backend: a local *ResultStore or a *RemoteStore
// (nil = in-process memo only). Results are byte-identical whichever
// backend is attached, and whether it hits, misses, or degrades.
func NewSimEngine(parallelism int, st StoreBackend) *SimEngine {
	e := engine.New(parallelism)
	e.SetBackend(st)
	return e
}

// ExperimentOptions scope an experiment run: workload scale and subset,
// event budget, core count, a cancellation context, and the engine the
// run submits to (nil = the process-wide engine at GOMAXPROCS width,
// with no store). Rendered tables are byte-identical whatever the
// engine's width or store.
type ExperimentOptions = experiments.Options

// Experiment is a named, runnable reproduction of one paper table or
// figure.
type Experiment = experiments.Runner

// Experiments lists every reproducible table/figure and ablation.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiments executes the named experiments ("fig1", "fig3",
// "fig5", "fig6", "fig10", "fig11", "fig12", "fig13", "table1",
// "table2", "ablation-svb", "ablation-eos", "ablation-drops"; all of
// them, in paper order, when ids is empty) sharing one engine, so
// simulations common to several figures run once. One id renders that
// experiment's bare table; several, or none, render the "== id:
// description" sectioned concatenation. An unknown id fails before
// anything runs.
func RunExperiments(ids []string, o ExperimentOptions) (string, error) {
	out, err := experiments.RunSelected(ids, o, nil)
	if err != nil {
		return "", fmt.Errorf("tifs: %w", err)
	}
	return out, nil
}

// MechanismByName resolves the CLI mechanism names MechanismNames lists,
// plus the aliases "baseline" (next-line) and "tifs" (tifs-unbounded),
// to their constructors — the same registry tifssim and the sweep
// service use.
func MechanismByName(name string) (Mechanism, error) {
	m, err := sim.MechanismByName(name)
	if err != nil {
		return Mechanism{}, fmt.Errorf("tifs: %w", err)
	}
	return m, nil
}

// MechanismNames lists the canonical CLI mechanism names, in the order
// tifssim's usage prints them.
func MechanismNames() []string { return sim.MechanismNames() }

// --- Sweep service -----------------------------------------------------

// SweepService is the long-running job daemon behind tifsserve -jobs:
// it owns one shared memoizing engine (optionally backed by the served
// result store), accepts simulation and sweep submissions over HTTP,
// single-flights identical jobs onto one execution, bounds concurrent
// work with per-client fairness queues, and streams per-simulation
// progress events. See internal/sweepd for the protocol.
type SweepService = sweepd.Service

// SweepServiceConfig sizes a service: engine parallelism, the persistent
// store backend, and the admission-control bounds (MaxActive concurrent
// jobs, MaxQueued / MaxQueuedPerClient queue depths — exceeding either
// yields 429 with Retry-After).
type SweepServiceConfig = sweepd.Config

// Job types shared by the service and its client.
type (
	// JobRequest is a submission: either a sweep (Experiments/Workloads)
	// or a single simulation (Workload/Mechanism/Baseline), plus the
	// shared Scale/Events/Cores knobs.
	JobRequest = sweepd.JobRequest
	// JobStatus is a job's state, output, and engine-work counters.
	JobStatus = sweepd.JobStatus
	// JobEvent is one progress notification on a job's event stream.
	JobEvent = sweepd.Event
	// JobClient submits jobs and watches their event streams, retrying
	// transient failures (submissions are idempotent under single-flight)
	// and resuming dropped streams from the last delivered sequence
	// number.
	JobClient = sweepd.Client
)

// Job lifecycle states: queued -> running -> done | failed.
const (
	JobQueued  = sweepd.StateQueued
	JobRunning = sweepd.StateRunning
	JobDone    = sweepd.StateDone
	JobFailed  = sweepd.StateFailed
)

// NewSweepService starts a sweep service; mount it on an http.ServeMux
// with its Register method and stop it with Close.
func NewSweepService(cfg SweepServiceConfig) *SweepService { return sweepd.New(cfg) }

// DialJobService makes a job client for a tifsserve base URL. nil
// httpClient uses http.DefaultClient; pass a custom client to inject
// faults (NetFaultTransport) or set transport options.
func DialJobService(base string, httpClient *http.Client) *JobClient {
	return sweepd.NewClient(base, httpClient)
}

// SubmitJob submits a request to a sweep service and returns the
// (possibly deduplicated) job status without waiting for completion.
func SubmitJob(ctx context.Context, c *JobClient, req JobRequest) (JobStatus, error) {
	return c.Submit(ctx, req)
}

// WatchJob streams a job's progress events (nil onEvent discards them)
// until it completes, then returns its final status — including the
// full rendered output, byte-identical to the equivalent local run.
func WatchJob(ctx context.Context, c *JobClient, id string, onEvent func(JobEvent)) (JobStatus, error) {
	return c.Watch(ctx, id, onEvent)
}
