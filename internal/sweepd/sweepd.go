// Package sweepd is the sweep service: the long-running daemon that
// turns the batch engine into a shared resource answering simulation
// and sweep requests from many concurrent clients.
//
// The HTTP surface (mounted next to the blob/manifest protocol by
// cmd/tifsserve):
//
//	POST /v1/jobs             submit a simulation or sweep (JSON)
//	GET  /v1/jobs/{id}        status + results
//	GET  /v1/jobs/{id}/events streaming NDJSON progress (?from=seq resumes)
//
// Three disciplines make it a service rather than a CGI wrapper:
//
//   - Single-flight: every submission canonicalizes to a key; identical
//     submissions — concurrent or later — join the one job under that
//     key instead of spawning duplicate work, and the engine beneath
//     deduplicates at per-simulation granularity besides. N clients
//     asking for the same sweep cost exactly one grid execution, and
//     all of them receive byte-identical output.
//   - Warm hits: the engine's memo tiers (in-process + persistent
//     store) answer repeated work without simulating, so a warm sweep
//     completes in the time it takes to decode cached results.
//   - Admission control: at most MaxActive jobs execute concurrently
//     (each bounded to the engine's simulation parallelism); queued
//     jobs wait in per-client FIFO queues drained round-robin, so one
//     greedy client cannot starve the rest; past the per-client or
//     global queue bounds, submissions get 429 with Retry-After.
//
// Progress streams as NDJSON events: job transitions, per-experiment
// phases, and the engine's per-simulation scheduling events (run,
// store-hit), so a client can watch a sweep execute simulation by
// simulation. Cancellation and outages follow the PR 5 discipline on
// the client side: submissions are idempotent (single-flight absorbs a
// retried POST), and a dropped event stream resumes from the last
// sequence number.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/workload"
)

// State is a job's lifecycle position.
type State string

// Job states: queued -> running -> done | failed.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Event kinds, beyond the engine's sim-start/sim-done/trace-start/
// trace-done/store-hit scheduling events which stream through
// unchanged.
const (
	EvQueued          = "queued"
	EvStart           = "start"
	EvExperimentStart = "experiment-start"
	EvExperimentDone  = "experiment-done"
	EvDone            = "done"
	EvFailed          = "failed"
)

// JobRequest is the wire form of a submission. Two shapes share it:
//
//   - a sweep: Experiments (empty = the full registry) with optional
//     Workloads restriction — the output is the experiments' rendered
//     tables, byte-identical to tifsbench;
//   - a single simulation: Workload + Mechanism (+Baseline for the
//     speedup line) — the output is the tifssim report.
//
// Scale, Events, and Cores apply to both. Fields that do not change
// output bytes (client identity, transport) are deliberately absent so
// the canonical key equates every submission that would produce the
// same answer.
type JobRequest struct {
	// Sweep form.
	Experiments []string `json:"experiments,omitempty"`
	Workloads   []string `json:"workloads,omitempty"`

	// Simulation form.
	Workload  string `json:"workload,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`
	Baseline  bool   `json:"baseline,omitempty"`

	// Shared.
	Scale  string `json:"scale,omitempty"`  // small|medium|full (default small)
	Events uint64 `json:"events,omitempty"` // per-core budget (0 = scale default)
	Cores  int    `json:"cores,omitempty"`  // CMP width (default 4)
}

// Event is one progress notification on a job's stream.
type Event struct {
	Seq   int    `json:"seq"`
	State State  `json:"state"`
	Kind  string `json:"kind"`
	// Phase carries the experiment ID for experiment events and the
	// canonical engine key for simulation/trace events.
	Phase string `json:"phase,omitempty"`
	Msg   string `json:"msg,omitempty"`
	// Counter snapshots at the time of the event (see JobStatus).
	SimsRun   uint64 `json:"sims_run"`
	StoreHits uint64 `json:"store_hits"`
}

// JobStatus is the answer to GET /v1/jobs/{id} and to a submission.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Deduped marks a submission that joined an existing job (the
	// single-flight path) instead of creating one.
	Deduped bool `json:"deduped,omitempty"`
	// Output is the complete rendered result, present once State is
	// done; byte-identical to the equivalent local run.
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	// SimsRun/StoreHits/TraceRuns count engine work observed while this
	// job ran. With concurrent jobs sharing the engine the attribution
	// is approximate (shared work counts for every job that overlapped
	// it); a warm hit is exact: zero simulations anywhere.
	SimsRun   uint64 `json:"sims_run"`
	StoreHits uint64 `json:"store_hits"`
	TraceRuns uint64 `json:"trace_runs"`
}

// Config sizes a Service.
type Config struct {
	// Parallelism bounds concurrent simulations in the shared engine,
	// and each analysis figure's concurrent workloads (0 = GOMAXPROCS).
	Parallelism int
	// Backend is the persistent memo tier (the served store directory;
	// nil = in-process memo only).
	Backend store.Backend
	// MaxActive bounds concurrently executing jobs (0 selects 2).
	MaxActive int
	// MaxQueued bounds queued-but-not-running jobs across all clients
	// (0 selects 64); MaxQueuedPerClient bounds one client's share
	// (0 selects 4). Past either bound a submission gets 429.
	MaxQueued          int
	MaxQueuedPerClient int
	// MaxJobs bounds retained jobs including completed ones (0 selects
	// 1024); the oldest terminal jobs are evicted past it. An evicted
	// job's results remain warm in the engine/store tiers — resubmitting
	// its key is nearly free.
	MaxJobs int
}

func (c Config) maxActive() int {
	if c.MaxActive <= 0 {
		return 2
	}
	return c.MaxActive
}

func (c Config) maxQueued() int {
	if c.MaxQueued <= 0 {
		return 64
	}
	return c.MaxQueued
}

func (c Config) maxQueuedPerClient() int {
	if c.MaxQueuedPerClient <= 0 {
		return 4
	}
	return c.MaxQueuedPerClient
}

func (c Config) maxJobs() int {
	if c.MaxJobs <= 0 {
		return 1024
	}
	return c.MaxJobs
}

// maxEventsPerJob bounds one job's event log. Past it, engine-level
// scheduling events update the counters but are not appended (phase and
// terminal events always are), so a full-scale sweep cannot balloon the
// stream while the counters stay exact.
const maxEventsPerJob = 4096

// Service owns the shared engine and the job table. Construct with
// New, mount with Register, stop with Close.
type Service struct {
	cfg    Config
	eng    *engine.Engine
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	cond        *sync.Cond // dispatcher + Close wakeup
	byID        map[string]*job
	byKey       map[string]*job // single-flight: canonical key -> job
	order       []*job          // creation order, for eviction
	queues      map[string][]*job
	clientRing  []string // round-robin order over clients with queued work
	rrNext      int
	queuedTotal int
	active      int
	running     map[*job]bool // jobs currently executing (observer fan-out)
	nextID      int
	closed      bool
}

// New starts a service (its dispatcher runs until Close).
func New(cfg Config) *Service {
	s := &Service{
		cfg:     cfg,
		eng:     engine.New(cfg.Parallelism),
		byID:    map[string]*job{},
		byKey:   map[string]*job{},
		queues:  map[string][]*job{},
		running: map[*job]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Backend != nil {
		s.eng.SetBackend(cfg.Backend)
	}
	s.eng.SetObserver(s.observe)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	go s.dispatch()
	return s
}

// Engine exposes the shared scheduler, for run counters in telemetry
// and tests (warm-hit assertions read SimulationsRun).
func (s *Service) Engine() *engine.Engine { return s.eng }

// Close stops admitting work, fails everything still queued, cancels
// running jobs, waits for them to unwind, and releases the shared
// engine's pooled simulation machines (the service owns its engine).
func (s *Service) Close() {
	s.cancel()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		for _, j := range q {
			j.finish("", errors.New("sweepd: service shutting down"))
		}
	}
	s.queues = map[string][]*job{}
	s.clientRing = nil
	s.queuedTotal = 0
	s.cond.Broadcast()
	for s.active > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.eng.Close()
}

// job is one admitted submission and its progress log.
type job struct {
	id     string
	key    string
	client string
	req    JobRequest // normalized
	scale  workload.Scale

	mu        sync.Mutex
	cond      *sync.Cond // event-append broadcast for streamers
	state     State
	events    []Event
	output    string
	errMsg    string
	simsRun   uint64
	storeHits uint64
	traceRuns uint64
}

func newJob(id, key, client string, req JobRequest, scale workload.Scale) *job {
	j := &job{id: id, key: key, client: client, req: req, scale: scale, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	j.appendLocked(EvQueued, "", "")
	return j
}

// appendLocked adds an event; the caller holds (or is constructing
// under) j.mu exclusivity.
func (j *job) appendLocked(kind, phase, msg string) {
	j.events = append(j.events, Event{
		Seq: len(j.events), State: j.state, Kind: kind, Phase: phase, Msg: msg,
		SimsRun: j.simsRun, StoreHits: j.storeHits,
	})
	j.cond.Broadcast()
}

func (j *job) event(kind, phase, msg string) {
	j.mu.Lock()
	j.appendLocked(kind, phase, msg)
	j.mu.Unlock()
}

// engineEvent folds one engine scheduling notification into the job:
// counters always, the event log while it has room.
func (j *job) engineEvent(kind, key string) {
	j.mu.Lock()
	switch kind {
	case engine.EventSimDone:
		j.simsRun++
	case engine.EventStoreHit:
		j.storeHits++
	case engine.EventTraceDone:
		j.traceRuns++
	}
	if len(j.events) < maxEventsPerJob {
		j.appendLocked(kind, key, "")
	} else {
		j.cond.Broadcast() // streamers still see counter movement on the next event
	}
	j.mu.Unlock()
}

func (j *job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.appendLocked(EvStart, "", "")
	j.mu.Unlock()
}

func (j *job) finish(output string, err error) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		j.appendLocked(EvFailed, "", j.errMsg)
	} else {
		j.state = StateDone
		j.output = output
		j.appendLocked(EvDone, "", "")
	}
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Key: j.key, State: j.state,
		Output: j.output, Error: j.errMsg,
		SimsRun: j.simsRun, StoreHits: j.storeHits, TraceRuns: j.traceRuns,
	}
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed
}

// canonicalize validates a request, applies defaults, and derives the
// single-flight key. Everything in the key changes output bytes;
// nothing else is allowed in, so equivalent submissions — whatever
// client, whatever transport — collapse onto one job.
func canonicalize(req JobRequest) (JobRequest, workload.Scale, string, error) {
	if req.Scale == "" {
		req.Scale = "small"
	}
	scale, err := workload.ParseScale(req.Scale)
	if err != nil {
		return req, scale, "", err
	}
	req.Scale = fmt.Sprint(scale)
	if req.Cores <= 0 {
		req.Cores = 4
	}
	if req.Cores > sim.MaxCores {
		return req, scale, "", fmt.Errorf("cores %d: at most %d", req.Cores, sim.MaxCores)
	}

	if req.Workload != "" || req.Mechanism != "" {
		// Simulation form.
		if req.Workload == "" {
			return req, scale, "", errors.New("simulation submission requires workload")
		}
		if len(req.Experiments) > 0 || len(req.Workloads) > 0 {
			return req, scale, "", errors.New("submission mixes the simulation form (workload/mechanism) with the sweep form (experiments/workloads)")
		}
		if _, ok := workload.ByName(req.Workload); !ok {
			return req, scale, "", fmt.Errorf("unknown workload %q (have %v)", req.Workload, workload.Names())
		}
		if req.Mechanism == "" {
			req.Mechanism = "tifs-dedicated"
		}
		if _, err := sim.MechanismByName(req.Mechanism); err != nil {
			return req, scale, "", fmt.Errorf("%v (have %v)", err, sim.MechanismNames())
		}
		key := fmt.Sprintf("sim|%s|%s|%s|%d|%d|%t",
			req.Workload, req.Scale, req.Mechanism, req.Events, req.Cores, req.Baseline)
		return req, scale, key, nil
	}

	// Sweep form. An empty experiment list means the full registry —
	// expanded here so "all" and the explicit list share one key.
	if len(req.Experiments) == 0 {
		req.Experiments = experiments.IDs()
	}
	for _, id := range req.Experiments {
		if _, ok := experiments.ByID(id); !ok {
			return req, scale, "", fmt.Errorf("unknown experiment %q (have %v)", id, experiments.IDs())
		}
	}
	for _, w := range req.Workloads {
		if _, ok := workload.ByName(w); !ok {
			return req, scale, "", fmt.Errorf("unknown workload %q (have %v)", w, workload.Names())
		}
	}
	key := fmt.Sprintf("sweep|%s|%s|%d|%d|%s",
		strings.Join(req.Experiments, ","), req.Scale, req.Events, req.Cores,
		strings.Join(req.Workloads, ","))
	return req, scale, key, nil
}

// submitResult is Submit's outcome: a status plus the HTTP code the
// handler maps it to.
type submitResult struct {
	status     JobStatus
	code       int
	retryAfter int // seconds, for 429
	err        error
}

// Submit admits (or joins) a job for a client. Exported for in-process
// embedding; the HTTP handler is a thin wrapper.
func (s *Service) Submit(req JobRequest, client string) (JobStatus, error) {
	r := s.submit(req, client)
	return r.status, r.err
}

func (s *Service) submit(req JobRequest, client string) submitResult {
	norm, scale, key, err := canonicalize(req)
	if err != nil {
		return submitResult{code: http.StatusBadRequest, err: err}
	}
	if client == "" {
		client = "anonymous"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byKey[key]; ok {
		// Single-flight: identical submission, whatever its state —
		// queued, running, or already done — is the same job.
		st := j.status()
		st.Deduped = true
		return submitResult{status: st, code: http.StatusOK}
	}
	if s.closed {
		return submitResult{code: http.StatusServiceUnavailable, err: errors.New("service shutting down")}
	}
	if s.queuedTotal >= s.cfg.maxQueued() {
		return submitResult{code: http.StatusTooManyRequests,
			retryAfter: 1 + s.queuedTotal,
			err:        fmt.Errorf("admission: %d jobs queued (global bound %d)", s.queuedTotal, s.cfg.maxQueued())}
	}
	if n := len(s.queues[client]); n >= s.cfg.maxQueuedPerClient() {
		return submitResult{code: http.StatusTooManyRequests,
			retryAfter: 1 + n,
			err:        fmt.Errorf("admission: client %q has %d jobs queued (per-client bound %d)", client, n, s.cfg.maxQueuedPerClient())}
	}

	s.nextID++
	j := newJob(fmt.Sprintf("j-%d", s.nextID), key, client, norm, scale)
	s.byID[j.id] = j
	s.byKey[key] = j
	s.order = append(s.order, j)
	if _, ok := s.queues[client]; !ok {
		s.clientRing = append(s.clientRing, client)
	}
	s.queues[client] = append(s.queues[client], j)
	s.queuedTotal++
	s.evictLocked()
	s.cond.Broadcast()
	return submitResult{status: j.status(), code: http.StatusAccepted}
}

// evictLocked trims the oldest terminal jobs past the retention bound.
func (s *Service) evictLocked() {
	if len(s.byID) <= s.cfg.maxJobs() {
		return
	}
	kept := s.order[:0]
	excess := len(s.byID) - s.cfg.maxJobs()
	for _, j := range s.order {
		if excess > 0 && j.terminal() {
			delete(s.byID, j.id)
			if s.byKey[j.key] == j {
				delete(s.byKey, j.key)
			}
			excess--
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

// dispatch drains the fairness queues: while a slot is free, pick the
// next client round-robin, pop its oldest job, run it.
func (s *Service) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && (s.active >= s.cfg.maxActive() || s.queuedTotal == 0) {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		j := s.nextLocked()
		if j == nil {
			continue
		}
		s.active++
		s.running[j] = true
		go s.runJob(j)
	}
}

// nextLocked pops the next queued job in round-robin client order.
func (s *Service) nextLocked() *job {
	for len(s.clientRing) > 0 {
		i := s.rrNext % len(s.clientRing)
		client := s.clientRing[i]
		q := s.queues[client]
		if len(q) == 0 {
			s.clientRing = append(s.clientRing[:i], s.clientRing[i+1:]...)
			delete(s.queues, client)
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(s.queues, client)
			s.clientRing = append(s.clientRing[:i], s.clientRing[i+1:]...)
			// rrNext now indexes the element shifted into i: the next
			// client in ring order.
		} else {
			s.queues[client] = q[1:]
			s.rrNext = i + 1
		}
		if len(s.clientRing) > 0 {
			s.rrNext %= len(s.clientRing)
		} else {
			s.rrNext = 0
		}
		s.queuedTotal--
		return j
	}
	return nil
}

func (s *Service) runJob(j *job) {
	defer func() {
		s.mu.Lock()
		delete(s.running, j)
		s.active--
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	j.start()
	var out string
	var err error
	if j.req.Workload != "" {
		out, err = s.runSimulation(j)
	} else {
		out, err = s.runSweep(j)
	}
	if err == nil && s.ctx.Err() != nil {
		err = errors.New("sweepd: service shut down mid-run; results are partial")
	}
	j.finish(out, err)
}

// runSweep executes the experiment form on the shared engine.
func (s *Service) runSweep(j *job) (string, error) {
	o := experiments.Options{
		Context: s.ctx, Scale: j.scale, Events: j.req.Events, Cores: j.req.Cores,
		Workloads: j.req.Workloads, Engine: s.eng,
	}
	return experiments.RunSelected(j.req.Experiments, o, func(id string, done bool) {
		if done {
			j.event(EvExperimentDone, id, "")
		} else {
			j.event(EvExperimentStart, id, "")
		}
	})
}

// runSimulation executes the single-simulation form through
// Engine.RunReport, the path tifssim takes locally.
func (s *Service) runSimulation(j *job) (string, error) {
	spec, _ := workload.ByName(j.req.Workload)
	mech, err := sim.MechanismByName(j.req.Mechanism)
	if err != nil {
		return "", err
	}
	out := s.eng.RunReport(s.ctx, engine.Job{Spec: spec, Scale: j.scale, Config: sim.Config{
		Cores: j.req.Cores, EventsPerCore: j.req.Events, Mechanism: mech,
	}}, j.req.Baseline)
	if s.ctx.Err() != nil {
		return "", errors.New("sweepd: service shut down mid-run")
	}
	return out, nil
}

// observe fans the engine's scheduling events out to every running job:
// the engine is shared, so any simulation that executes while a job is
// running may be part of that job's grid (deduplicated work belongs to
// every job that overlapped it).
func (s *Service) observe(kind, key string) {
	s.mu.Lock()
	running := make([]*job, 0, len(s.running))
	for j := range s.running {
		running = append(running, j)
	}
	s.mu.Unlock()
	for _, j := range running {
		j.engineEvent(kind, key)
	}
}

// --- HTTP surface ------------------------------------------------------

// maxRequestBytes bounds a submission body.
const maxRequestBytes = 1 << 20

// Register mounts the job API on a mux (Go 1.22 pattern routes).
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
}

// clientName identifies the submitter for fairness accounting: the
// explicit X-Tifs-Client header when present, the peer host otherwise.
func clientName(r *http.Request) string {
	if c := r.Header.Get("X-Tifs-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		http.Error(w, "request truncated", http.StatusServiceUnavailable)
		return
	}
	if len(body) > maxRequestBytes {
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return
	}
	// Unknown fields are ignored on purpose: older clients still send
	// fields the request has since dropped, and their submissions must
	// keep joining the same jobs.
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "malformed job request: "+err.Error(), http.StatusBadRequest)
		return
	}
	res := s.submit(req, clientName(r))
	if res.err != nil {
		if res.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
		}
		http.Error(w, res.err.Error(), res.code)
		return
	}
	writeJSON(w, res.code, res.status)
}

// Status returns a job's current status by ID, for in-process callers.
func (s *Service) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's event log as NDJSON from ?from=seq
// (default 0), flushing each event, until the terminal event is
// delivered or the client goes away. A reconnecting client passes the
// next unseen sequence number and misses nothing.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.byID[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			http.Error(w, "malformed from", http.StatusBadRequest)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unpark the cond wait below.
	stop := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	for {
		for from < len(j.events) {
			ev := j.events[from]
			from++
			j.mu.Unlock()
			if err := enc.Encode(ev); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			if ev.Kind == EvDone || ev.Kind == EvFailed {
				return
			}
			j.mu.Lock()
		}
		if r.Context().Err() != nil {
			j.mu.Unlock()
			return
		}
		if j.state == StateDone || j.state == StateFailed {
			// Terminal and fully delivered (the loop above drained the
			// log, and the terminal event is always the last entry).
			j.mu.Unlock()
			return
		}
		j.cond.Wait()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
