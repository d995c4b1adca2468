package sweepd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/store"
)

// cheapSweep is the reduced-scope request the tests submit: one
// simulating experiment, one workload, a small event budget.
func cheapSweep() JobRequest {
	return JobRequest{
		Experiments: []string{"fig1"},
		Workloads:   []string{"Web-Zeus"},
		Events:      10_000,
	}
}

// localOutput runs the same request locally on a fresh storeless
// engine: the ground truth the service must match byte for byte.
// Returns the output and how many simulations the grid costs.
func localOutput(t *testing.T, req JobRequest) (string, uint64) {
	t.Helper()
	e := engine.New(1)
	out, err := experiments.RunSelected(req.Experiments, experiments.Options{
		Events: req.Events, Cores: req.Cores, Workloads: req.Workloads, Engine: e,
	}, nil)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return out, e.SimulationsRun()
}

// startService mounts a fresh service (backed by dir when non-empty) on
// an httptest server.
func startService(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Backend = st
	}
	svc := New(cfg)
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

func submitAndWait(t *testing.T, ts *httptest.Server, name string, req JobRequest) JobStatus {
	t.Helper()
	c := NewClient(ts.URL, nil)
	c.Name = name
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("watch %s: %v", st.ID, err)
	}
	if final.State != StateDone {
		t.Fatalf("job %s finished %s: %s", st.ID, final.State, final.Error)
	}
	return final
}

// TestWarmHitSweepOverHTTP is the acceptance path: a sweep served from
// a warm store returns byte-identical output without running a single
// simulation.
func TestWarmHitSweepOverHTTP(t *testing.T) {
	dir := t.TempDir()
	req := cheapSweep()
	want, _ := localOutput(t, req)

	// Cold service populates the store.
	svc1, ts1 := startService(t, dir, Config{Parallelism: 2})
	cold := submitAndWait(t, ts1, "alice", req)
	if cold.Output != want {
		t.Fatalf("cold output differs from local run:\n--- want\n%s\n--- got\n%s", want, cold.Output)
	}
	if svc1.Engine().SimulationsRun() == 0 {
		t.Fatal("cold run reported zero simulations; warm-hit assertion below would be vacuous")
	}
	svc1.Close()
	ts1.Close()

	// Fresh service over the same store: everything is a warm hit.
	svc2, ts2 := startService(t, dir, Config{Parallelism: 2})
	warm := submitAndWait(t, ts2, "bob", req)
	if warm.Output != want {
		t.Fatalf("warm output differs:\n--- want\n%s\n--- got\n%s", want, warm.Output)
	}
	if runs := svc2.Engine().SimulationsRun(); runs != 0 {
		t.Errorf("warm sweep ran %d simulations, want 0 (store should answer everything)", runs)
	}
	if hits := svc2.Engine().StoreHits(); hits == 0 {
		t.Error("warm sweep recorded no store hits")
	}
	if warm.SimsRun != 0 {
		t.Errorf("warm job status reports %d sims run, want 0", warm.SimsRun)
	}
	if warm.StoreHits == 0 {
		t.Error("warm job status reports no store hits")
	}
}

// TestSingleFlightConcurrentSubmissions: N clients submit the identical
// sweep concurrently; exactly one job is created, the grid executes
// exactly once, and every client receives byte-identical output.
func TestSingleFlightConcurrentSubmissions(t *testing.T) {
	req := cheapSweep()
	want, wantRuns := localOutput(t, req)
	svc, ts := startService(t, "", Config{Parallelism: 2})

	const n = 4
	var wg sync.WaitGroup
	statuses := make([]JobStatus, n)
	finals := make([]JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL, nil)
			c.Name = fmt.Sprintf("client-%d", i)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			st, err := c.Submit(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i] = st
			finals[i], errs[i] = c.Watch(ctx, st.ID, nil)
		}(i)
	}
	wg.Wait()
	created := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if statuses[i].ID != statuses[0].ID {
			t.Errorf("client %d joined job %s, client 0 got %s: single-flight broken",
				i, statuses[i].ID, statuses[0].ID)
		}
		if !statuses[i].Deduped {
			created++
		}
		if finals[i].Output != want {
			t.Errorf("client %d output differs from local run", i)
		}
	}
	if created != 1 {
		t.Errorf("%d submissions created a job, want exactly 1", created)
	}
	if runs := svc.Engine().SimulationsRun(); runs != wantRuns {
		t.Errorf("engine ran %d simulations for %d identical submissions, want %d (one grid)",
			runs, n, wantRuns)
	}

	// A later identical submission joins the finished job instantly.
	c := NewClient(ts.URL, nil)
	c.Name = "latecomer"
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("late submit: %v", err)
	}
	if !st.Deduped || st.State != StateDone || st.Output != want {
		t.Errorf("late identical submission: deduped=%v state=%s (want joined, done, cached output)",
			st.Deduped, st.State)
	}
	if runs := svc.Engine().SimulationsRun(); runs != wantRuns {
		t.Errorf("late submission re-ran work: %d runs, want still %d", runs, wantRuns)
	}
}

// stalledService builds a service whose dispatcher never starts, so
// queued jobs stay queued — admission control can be exercised
// deterministically.
func stalledService(cfg Config) *Service {
	s := &Service{
		cfg:     cfg,
		eng:     engine.New(1),
		byID:    map[string]*job{},
		byKey:   map[string]*job{},
		queues:  map[string][]*job{},
		running: map[*job]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// distinctReq returns the i-th of a family of distinct valid requests.
func distinctReq(i int) JobRequest {
	r := cheapSweep()
	r.Events = uint64(10_000 + i)
	return r
}

// TestAdmissionControl: past the per-client bound a submission gets 429
// with Retry-After; other clients still get in until the global bound.
func TestAdmissionControl(t *testing.T) {
	svc := stalledService(Config{MaxQueued: 3, MaxQueuedPerClient: 2})
	defer svc.cancel()
	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(client string, req JobRequest) *http.Response {
		body, _ := json.Marshal(req)
		hreq, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(string(body)))
		hreq.Header.Set("X-Tifs-Client", client)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Client A fills its per-client quota.
	for i := 0; i < 2; i++ {
		if resp := post("a", distinctReq(i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("a's submission %d: got %d, want 202", i, resp.StatusCode)
		}
	}
	resp := post("a", distinctReq(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("a past per-client bound: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	// Client B is unaffected by A's backlog until the global bound.
	if resp := post("b", distinctReq(3)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("b's first submission: got %d, want 202", resp.StatusCode)
	}
	resp = post("b", distinctReq(4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("past global bound: got %d, want 429", resp.StatusCode)
	}
	// A duplicate of a queued job still joins: dedup beats admission.
	resp = post("c", distinctReq(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate of queued job: got %d, want 200 (joined)", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode joined status: %v", err)
	}
	if !st.Deduped || st.State != StateQueued {
		t.Errorf("joined queued job: deduped=%v state=%s", st.Deduped, st.State)
	}
}

// TestRoundRobinFairness: with a backlog from clients a,a,a,b the
// dispatcher alternates a,b,a,a rather than draining a first.
func TestRoundRobinFairness(t *testing.T) {
	svc := stalledService(Config{})
	defer svc.cancel()
	for i, client := range []string{"a", "a", "a", "b"} {
		if _, err := svc.Submit(distinctReq(i), client); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	svc.mu.Lock()
	var order []string
	for {
		j := svc.nextLocked()
		if j == nil {
			break
		}
		order = append(order, j.client)
	}
	svc.mu.Unlock()
	want := []string{"a", "b", "a", "a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("dispatch order %v, want %v", order, want)
	}
}

// TestEventStreamAndResume: the event log is ordered, starts with
// queued, ends with done, and ?from=seq replays only the tail.
func TestEventStreamAndResume(t *testing.T) {
	_, ts := startService(t, "", Config{})
	c := NewClient(ts.URL, nil)
	c.Name = "watcher"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := cheapSweep()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []Event
	final, err := c.Watch(ctx, st.ID, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if len(events) < 4 {
		t.Fatalf("got %d events, want at least queued/start/experiment/done", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: stream must be gapless from 0", i, ev.Seq)
		}
	}
	if events[0].Kind != EvQueued {
		t.Errorf("first event %q, want queued", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != EvDone {
		t.Errorf("last event %q, want done", last.Kind)
	}
	if last.SimsRun == 0 {
		t.Error("terminal event snapshots zero sims for a cold sweep")
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{EvStart, EvExperimentStart, EvExperimentDone, engine.EventSimDone} {
		if !kinds[want] {
			t.Errorf("stream missing %q event", want)
		}
	}

	// Resume from the middle: a second watcher sees exactly the tail.
	mid := len(events) / 2
	resumed, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?from=" + fmt.Sprint(mid))
	if err != nil {
		t.Fatalf("resume GET: %v", err)
	}
	defer resumed.Body.Close()
	dec := json.NewDecoder(resumed.Body)
	n := 0
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		if ev.Seq != mid+n {
			t.Fatalf("resumed event %d has seq %d, want %d", n, ev.Seq, mid+n)
		}
		n++
	}
	if n != len(events)-mid {
		t.Errorf("resume from %d delivered %d events, want %d", mid, n, len(events)-mid)
	}
}

// TestSimulationForm: the single-simulation job shape works end to end
// and carries the tifssim report.
func TestSimulationForm(t *testing.T) {
	_, ts := startService(t, "", Config{})
	final := submitAndWait(t, ts, "simmer", JobRequest{
		Workload: "Web-Zeus", Mechanism: "tifs-dedicated", Baseline: true, Events: 10_000,
	})
	for _, want := range []string{"workload:   Web-Zeus", "mechanism:", "speedup over next-line:"} {
		if !strings.Contains(final.Output, want) {
			t.Errorf("simulation report missing %q:\n%s", want, final.Output)
		}
	}
	if final.SimsRun != 2 {
		t.Errorf("simulation+baseline ran %d sims, want 2", final.SimsRun)
	}
}

// TestCanonicalization pins the key discipline: defaults applied,
// "everything" spelled two ways collapses, invalid shapes rejected.
func TestCanonicalization(t *testing.T) {
	_, _, implicit, err := canonicalize(JobRequest{})
	if err != nil {
		t.Fatalf("empty sweep request: %v", err)
	}
	_, _, explicit, err := canonicalize(JobRequest{Experiments: experiments.IDs(), Scale: "small", Cores: 4})
	if err != nil {
		t.Fatalf("explicit full request: %v", err)
	}
	if implicit != explicit {
		t.Errorf("implicit full sweep key %q != explicit %q: 'all' must dedupe with the spelled-out list", implicit, explicit)
	}

	norm, _, _, err := canonicalize(JobRequest{Workload: "Web-Zeus"})
	if err != nil {
		t.Fatalf("minimal simulation request: %v", err)
	}
	if norm.Mechanism != "tifs-dedicated" || norm.Cores != 4 || norm.Scale != "small" {
		t.Errorf("defaults not applied: %+v", norm)
	}

	for _, bad := range []JobRequest{
		{Experiments: []string{"nope"}},
		{Workloads: []string{"nope"}},
		{Workload: "nope"},
		{Workload: "Web-Zeus", Mechanism: "nope"},
		{Mechanism: "tifs-dedicated"},
		{Workload: "Web-Zeus", Experiments: []string{"fig1"}},
		{Scale: "nope"},
		{Workload: "Web-Zeus", Cores: 257},
		{Cores: 257},
	} {
		if _, _, _, err := canonicalize(bad); err == nil {
			t.Errorf("request %+v canonicalized without error", bad)
		}
	}
}

// TestTooManyCoresRejected: a core count past the simulator's bound is
// a 400 at submission, before any job or simulation exists.
func TestTooManyCoresRejected(t *testing.T) {
	svc, ts := startService(t, "", Config{})
	for _, body := range []string{
		`{"workload":"Web-Zeus","events":1000,"cores":257}`,
		`{"experiments":["fig1"],"workloads":["Web-Zeus"],"events":1000,"cores":257}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("submit %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: got %s, want 400", body, resp.Status)
		}
	}
	if n := svc.Engine().SimulationsRun(); n != 0 {
		t.Errorf("rejected submissions ran %d simulations, want 0", n)
	}
}

// TestLegacyFieldSubmissionJoinsJob: clients built when jobs still had
// an in-run producer-shard knob send a field the request no longer
// has. The decoder ignores unknown fields, so such a submission is
// accepted and joins the plain job with byte-identical output.
func TestLegacyFieldSubmissionJoinsJob(t *testing.T) {
	req := cheapSweep()
	want, _ := localOutput(t, req)

	_, ts := startService(t, "", Config{Parallelism: 2})
	plain := submitAndWait(t, ts, "alice", req)
	if plain.Output != want {
		t.Fatalf("plain output differs from local run:\n--- want\n%s\n--- got\n%s", want, plain.Output)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body[:len(body)-1], `,"intra_parallelism":4}`...)
	post, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	post.Header.Set("Content-Type", "application/json")
	post.Header.Set("X-Tifs-Client", "bob")
	resp, err := http.DefaultClient.Do(post)
	if err != nil {
		t.Fatalf("legacy submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy submission answered %s, want 200 (a join of %s)", resp.Status, plain.ID)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if !st.Deduped || st.ID != plain.ID {
		t.Errorf("legacy submission created a new job (deduped=%v id=%s, want join of %s)",
			st.Deduped, st.ID, plain.ID)
	}
	if st.Output != want {
		t.Errorf("legacy submission returned different output")
	}
}

// TestUnknownJob404 pins the status/events lookup error path.
func TestUnknownJob404(t *testing.T) {
	_, ts := startService(t, "", Config{})
	for _, path := range []string{"/v1/jobs/j-999", "/v1/jobs/j-999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", path, resp.StatusCode)
		}
	}
}
