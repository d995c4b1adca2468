// Package engine schedules simulation work across goroutines. Every data
// point of the paper's evaluation — one (workload, mechanism, config)
// simulation — is independent, so an experiment's grid fans out over a
// bounded worker pool and completes in makespan rather than sum time.
//
// The engine also deduplicates and memoizes: the next-line baseline that
// fig1, fig13, and the ablations each re-simulate per workload runs once
// and its Result is shared, and the per-core miss traces that fig3, fig5,
// fig6, fig10, and fig11 all extract from the same workload build are
// computed once. Simulations are pure functions of their (spec, scale,
// config) key — all randomness is instance-seeded (internal/xrand), so
// caching cannot change any value, and results are returned in submission
// order, which keeps experiment tables byte-identical whatever the
// parallelism.
//
// Two tiers extend the memo beyond a single batch: workers draw pooled
// sim.Runner machines, so repeated simulations reuse all machine state
// and run allocation-free in steady state, and an optional persistent
// store backend (SetBackend: the on-disk store or the remote client)
// carries results and miss traces across processes, so a repeated CLI
// invocation skips every grid point it has already simulated.
//
// Cancellation: every scheduling entry point takes a context.Context and
// stops admitting work once it is cancelled. Cancellation aborts, it
// does not poison — an entry whose simulation never ran is removed from
// the memo, so a later call with a live context recomputes it; results
// that did complete stay cached and stay correct. Callers must treat any
// result returned after ctx is cancelled as invalid.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tifs/internal/cpu"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// Job names one simulation: a workload, a scale, and a full simulator
// configuration.
type Job struct {
	Spec   workload.Spec
	Scale  workload.Scale
	Config sim.Config
}

// Key returns the canonical memoization key. Every field of the spec and
// config is scalar, so the printed form is a complete identity — stable
// across processes and machines, which is what lets the persistent store
// and the shard partitioner address work content-wise.
func (j Job) Key() string {
	return fmt.Sprintf("%+v|%d|%+v", j.Spec, j.Scale, j.Config)
}

// TraceJob names one per-core miss-trace extraction: the input of every
// offline analysis experiment.
type TraceJob struct {
	Spec   workload.Spec
	Scale  workload.Scale
	Cores  int
	Events uint64
}

// Key returns the canonical extraction key, with the same cross-process
// stability as Job.Key.
func (t TraceJob) Key() string {
	return fmt.Sprintf("%+v|%d|%d|%d", t.Spec, t.Scale, t.Cores, t.Events)
}

// simEntry is one memoized simulation; done is closed when res is valid
// (or when the entry was aborted — aborted entries are removed from the
// memo before done closes, so only in-flight waiters see them).
type simEntry struct {
	done chan struct{}
	res  sim.Result
}

// traceEntry is one memoized miss-trace extraction.
type traceEntry struct {
	done chan struct{}
	recs [][]trace.MissRecord
}

// Engine is a concurrency-bounded, memoizing simulation scheduler. The
// zero value is not usable; construct with New. An Engine is safe for
// concurrent use.
type Engine struct {
	parallelism int
	sem         chan struct{} // counting semaphore over running work

	mu       sync.Mutex
	closed   bool
	sims     map[string]*simEntry
	traces   map[string]*traceEntry
	grammars map[string]*grammarEntry

	// store is the optional persistent second memo tier: keys missing
	// from the in-process memo are looked up there before simulating,
	// and freshly simulated results are written back. Any store.Backend
	// serves — the on-disk store, or a remote client that may degrade to
	// missing on every Get; the engine recomputes on a miss, so a
	// backend outage costs time, never correctness.
	store store.Backend

	// runnerPool holds reusable simulation machines (one per
	// concurrently running job); a pooled steady-state run allocates
	// nothing. A plain free-list rather than sync.Pool so Close can drop
	// every pooled Runner at once and keep runners returned afterwards
	// out of it (guarded by mu together with closed).
	runnerPool []*sim.Runner

	// obs, when set, receives scheduling notifications (see Observer).
	// Written once before work is submitted, read by worker goroutines.
	obs Observer

	runs          atomic.Uint64 // simulations actually executed (memo misses)
	storeHits     atomic.Uint64 // jobs satisfied from the persistent store
	grammarBuilds atomic.Uint64 // grammar snapshot sets actually constructed
}

// Observer receives engine scheduling events, keyed by the canonical
// job or trace key. Kinds:
//
//	EventSimStart/EventSimDone      a memo-missing simulation ran
//	EventTraceStart/EventTraceDone  a memo-missing trace extraction ran
//	EventStoreHit                   the persistent tier supplied the value
//
// Deduplicated work emits no event: a submission that joins an
// in-flight or completed entry is invisible here, which is exactly what
// makes the event stream a faithful account of work actually performed.
// A done or store-hit event is delivered before the entry's waiters are
// released, so every event of the work a call waited for reaches the
// observer before that call returns. Callbacks run on worker goroutines
// and must be cheap and concurrency-safe.
type Observer func(kind, key string)

// Observer event kinds.
const (
	EventSimStart   = "sim-start"
	EventSimDone    = "sim-done"
	EventTraceStart = "trace-start"
	EventTraceDone  = "trace-done"
	EventStoreHit   = "store-hit"
)

// SetObserver attaches a scheduling observer. Set it before submitting
// work; it must not change while jobs are in flight.
func (e *Engine) SetObserver(obs Observer) { e.obs = obs }

func (e *Engine) notify(kind, key string) {
	if e.obs != nil {
		e.obs(kind, key)
	}
}

// New creates an engine running at most parallelism simulations at once;
// parallelism <= 0 selects GOMAXPROCS.
func New(parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
		sims:        map[string]*simEntry{},
		traces:      map[string]*traceEntry{},
		grammars:    map[string]*grammarEntry{},
	}
}

// Parallelism returns the worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// SimulationsRun returns how many simulations actually executed —
// submissions minus memoization and store hits — for dedup telemetry and
// tests.
func (e *Engine) SimulationsRun() uint64 { return e.runs.Load() }

// StoreHits returns how many memo-missing jobs were satisfied from the
// persistent store instead of simulating.
func (e *Engine) StoreHits() uint64 { return e.storeHits.Load() }

// SetBackend attaches a store backend (the on-disk store, the remote
// client, a test double) as the persistent memo tier. Attach it before
// submitting work; it must not change while jobs are in flight. A nil
// backend, or a nil *store.Store, disables the tier.
func (e *Engine) SetBackend(b store.Backend) {
	if s, ok := b.(*store.Store); ok && s == nil {
		// Guard the typed-nil hazard: a (*store.Store)(nil) in the
		// interface field would pass every e.store != nil check and then
		// panic inside the method calls.
		b = nil
	}
	e.store = b
}

// runner borrows a pooled simulation machine.
func (e *Engine) runner() *sim.Runner {
	e.mu.Lock()
	if n := len(e.runnerPool); n > 0 {
		r := e.runnerPool[n-1]
		e.runnerPool[n-1] = nil
		e.runnerPool = e.runnerPool[:n-1]
		e.mu.Unlock()
		return r
	}
	e.mu.Unlock()
	return sim.NewRunner()
}

// putRunner returns a machine to the pool, or drops it when the engine
// has been closed.
func (e *Engine) putRunner(r *sim.Runner) {
	e.mu.Lock()
	if !e.closed {
		e.runnerPool = append(e.runnerPool, r)
	}
	e.mu.Unlock()
}

// Close drops every pooled simulation machine, so the memory they hold
// can be collected. Call it when the engine's owner is done submitting
// work; jobs still in flight drop their runners on return instead of
// pooling them. A closed engine remains usable — later jobs simply
// build fresh runners — so Close is a resource release, not a shutdown.
// (The process-wide Default engine is deliberately never closed; its
// pooled runners live as long as the process.)
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.runnerPool = nil
	e.mu.Unlock()
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the process-wide engine at GOMAXPROCS parallelism.
// Experiment runners share it unless given an explicit engine, so a full
// suite run (tifsbench -experiment all, the benchmark suite) simulates
// each shared configuration exactly once.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0) })
	return defaultEngine
}

// Run executes one job, deduplicating against identical in-flight or
// completed runs. The caller blocks until the result is available, or
// until ctx is cancelled — then the zero Result returns immediately and
// the job, if it never started, is forgotten rather than poisoned.
func (e *Engine) Run(ctx context.Context, job Job) sim.Result {
	return e.wait(ctx, e.start(ctx, job))
}

// RunAll executes a batch of jobs across the worker pool and returns the
// results in job order. Duplicate keys within the batch (and against any
// earlier run) are simulated only once. If ctx is cancelled mid-batch,
// unstarted jobs are abandoned and their slots hold the zero Result.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) []sim.Result {
	entries := make([]*simEntry, len(jobs))
	for i, j := range jobs {
		entries[i] = e.start(ctx, j)
	}
	out := make([]sim.Result, len(jobs))
	for i, en := range entries {
		out[i] = e.wait(ctx, en)
	}
	return out
}

// start launches (or joins) the simulation for job and returns its entry.
func (e *Engine) start(ctx context.Context, job Job) *simEntry {
	key := job.Key()
	e.mu.Lock()
	if en, ok := e.sims[key]; ok {
		e.mu.Unlock()
		return en
	}
	en := &simEntry{done: make(chan struct{})}
	e.sims[key] = en
	e.mu.Unlock()

	go func() {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			e.abortSim(key, en)
			return
		}
		defer func() { <-e.sem }()
		if ctx.Err() != nil {
			// Cancelled while queued: nothing ran, so the key must not
			// be remembered as done.
			e.abortSim(key, en)
			return
		}
		if e.store != nil {
			if res, ok := e.store.GetResult(key); ok {
				e.storeHits.Add(1)
				en.res = res
				e.notify(EventStoreHit, key)
				close(en.done)
				return
			}
		}
		e.runs.Add(1)
		e.notify(EventSimStart, key)
		r := e.runner()
		// The pooled runner reuses its result buffers next run, so the
		// memoized copy must own its memory.
		en.res = copyResult(r.Run(job.Spec, job.Scale, job.Config))
		e.putRunner(r)
		if e.store != nil {
			e.store.PutResult(key, en.res)
		}
		e.notify(EventSimDone, key)
		close(en.done)
	}()
	return en
}

// abortSim unwinds a memo entry whose simulation never ran: the key is
// deleted first, so no new caller can join, then done is closed to
// release the waiters already parked on it (they observe the zero
// Result, which cancelled callers must discard anyway).
func (e *Engine) abortSim(key string, en *simEntry) {
	e.mu.Lock()
	if cur, ok := e.sims[key]; ok && cur == en {
		delete(e.sims, key)
	}
	e.mu.Unlock()
	close(en.done)
}

// wait blocks for an entry and returns a defensive copy: cached results
// are shared between callers, so the slices and pointers inside must not
// alias across them. A cancelled ctx unblocks immediately with the zero
// Result.
func (e *Engine) wait(ctx context.Context, en *simEntry) sim.Result {
	select {
	case <-en.done:
		return copyResult(en.res)
	case <-ctx.Done():
		return sim.Result{}
	}
}

// copyResult clones the result's reference fields.
func copyResult(r sim.Result) sim.Result {
	if r.PerCore != nil {
		pc := make([]cpu.Stats, len(r.PerCore))
		copy(pc, r.PerCore)
		r.PerCore = pc
	}
	if r.TIFS != nil {
		ts := *r.TIFS
		r.TIFS = &ts
	}
	return r
}

// Keys returns the canonical keys of every simulation and trace
// extraction this engine has been asked for, sorted. Grid-enumeration
// tests use it to prove a sweep's shard plan covers exactly the work the
// experiments perform.
func (e *Engine) Keys() (sims, traces []string) {
	e.mu.Lock()
	for k := range e.sims {
		sims = append(sims, k)
	}
	for k := range e.traces {
		traces = append(traces, k)
	}
	e.mu.Unlock()
	sort.Strings(sims)
	sort.Strings(traces)
	return sims, traces
}

// ExtractTraces is MissTraces keyed by a TraceJob, for callers that
// enumerate extraction work the same way they enumerate simulations.
func (e *Engine) ExtractTraces(ctx context.Context, t TraceJob) [][]trace.MissRecord {
	return e.MissTraces(ctx, t.Spec, t.Scale, t.Cores, t.Events)
}

// MissTraces returns the per-core filtered L1-I miss traces for a
// workload build — the input of every offline analysis experiment —
// extracting each core's trace concurrently and memoizing the whole set.
// Callers must treat the returned records as read-only; they are shared.
// A cancelled ctx returns nil; a partially extracted set is discarded,
// not memoized.
func (e *Engine) MissTraces(ctx context.Context, spec workload.Spec, scale workload.Scale, cores int, events uint64) [][]trace.MissRecord {
	if ctx.Err() != nil {
		return nil
	}
	key := TraceJob{Spec: spec, Scale: scale, Cores: cores, Events: events}.Key()
	e.mu.Lock()
	if en, ok := e.traces[key]; ok {
		e.mu.Unlock()
		select {
		case <-en.done:
			return en.recs
		case <-ctx.Done():
			return nil
		}
	}
	en := &traceEntry{done: make(chan struct{})}
	e.traces[key] = en
	e.mu.Unlock()

	abort := func() [][]trace.MissRecord {
		e.mu.Lock()
		if cur, ok := e.traces[key]; ok && cur == en {
			delete(e.traces, key)
		}
		e.mu.Unlock()
		close(en.done)
		return nil
	}

	if e.store != nil {
		if recs, ok := e.store.GetMissTraces(key); ok && len(recs) == cores {
			e.storeHits.Add(1)
			en.recs = recs
			e.notify(EventStoreHit, key)
			close(en.done)
			return en.recs
		}
	}

	e.notify(EventTraceStart, key)
	gen := workload.Build(spec, scale, cores)
	sources := gen.Sources()
	recs := make([][]trace.MissRecord, cores)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < cores; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case e.sem <- struct{}{}:
			case <-ctx.Done():
				cancelled.Store(true)
				return
			}
			defer func() { <-e.sem }()
			recs[i] = trace.ExtractMisses(sources[i], events, trace.ExtractorConfig{})
		}(i)
	}
	wg.Wait()
	if cancelled.Load() || ctx.Err() != nil {
		// A partial set must not be memoized or stored: the next caller
		// with a live context recomputes all cores.
		return abort()
	}
	en.recs = recs
	if e.store != nil {
		e.store.PutMissTraces(key, en.recs)
	}
	e.notify(EventTraceDone, key)
	close(en.done)
	return en.recs
}
