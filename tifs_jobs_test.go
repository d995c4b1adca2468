package tifs_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tifs"
	"tifs/internal/remotestore"
	"tifs/internal/store"
)

// jobsRequest is the reduced-scope submission the e2e tests use.
func jobsRequest() tifs.JobRequest {
	return tifs.JobRequest{
		Experiments: []string{"fig1"},
		Workloads:   []string{"OLTP-DB2"},
		Scale:       "small",
		Events:      3_000,
	}
}

// startJobServer stands up the full tifsserve composition in-process:
// the blob/manifest protocol and the sweep service sharing one store
// directory and one mux, exactly as cmd/tifsserve mounts them.
func startJobServer(t *testing.T, dir string) (*tifs.SweepService, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	svc := tifs.NewSweepService(tifs.SweepServiceConfig{Parallelism: 2, Backend: st})
	t.Cleanup(svc.Close)
	mux := http.NewServeMux()
	mux.Handle("/", remotestore.NewServer(st, dir).Handler())
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return svc, ts
}

// TestJobServiceEndToEnd is the service acceptance path in one arc: two
// concurrent clients — one behind a deterministic fault matrix — submit
// the identical sweep; the grid executes once, both receive output
// byte-identical to a storeless serial local run, and a fresh service
// over the same store then answers the same submission warm, running
// zero simulations.
func TestJobServiceEndToEnd(t *testing.T) {
	req := jobsRequest()
	// Ground truth: storeless serial local run.
	want, err := tifs.RunExperiments(req.Experiments, tifs.ExperimentOptions{
		Scale: tifs.ScaleSmall, Events: req.Events, Workloads: req.Workloads,
		Engine: tifs.NewSimEngine(1, nil),
	})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	dir := t.TempDir()
	svc, ts := startJobServer(t, dir)

	// Client B's transport drops the first submit and tears the first
	// event stream, forcing a retried POST (absorbed by single-flight)
	// and a stream resume.
	faultRT, err := tifs.NetFaultTransport("drop:POST:/v1/jobs:1,torn:GET:/events:1", nil)
	if err != nil {
		t.Fatalf("netfault: %v", err)
	}
	clients := []*tifs.JobClient{
		tifs.DialJobService(ts.URL, nil),
		tifs.DialJobService(ts.URL, &http.Client{Transport: faultRT}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	finals := make([]tifs.JobStatus, len(clients))
	subs := make([]tifs.JobStatus, len(clients))
	errs := make([]error, len(clients))
	for i, c := range clients {
		c.Name = fmt.Sprintf("e2e-client-%d", i)
		wg.Add(1)
		go func(i int, c *tifs.JobClient) {
			defer wg.Done()
			st, err := tifs.SubmitJob(ctx, c, req)
			if err != nil {
				errs[i] = err
				return
			}
			subs[i] = st
			finals[i], errs[i] = tifs.WatchJob(ctx, c, st.ID, nil)
		}(i, c)
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if finals[i].State != tifs.JobDone {
			t.Fatalf("client %d job %s: %s", i, finals[i].State, finals[i].Error)
		}
		if finals[i].Output != want {
			t.Errorf("client %d output differs from storeless serial local run", i)
		}
	}
	if subs[0].ID != subs[1].ID {
		t.Errorf("clients got different jobs (%s vs %s): single-flight broken", subs[0].ID, subs[1].ID)
	}
	wantRuns := svc.Engine().SimulationsRun()
	if wantRuns == 0 {
		t.Fatal("cold service ran zero simulations")
	}

	// Warm restart: a fresh service over the same store directory must
	// serve the identical submission without simulating at all.
	svc.Close()
	ts.Close()
	svc2, ts2 := startJobServer(t, dir)
	c := tifs.DialJobService(ts2.URL, nil)
	c.Name = "e2e-warm"
	st, err := tifs.SubmitJob(ctx, c, req)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	final, err := tifs.WatchJob(ctx, c, st.ID, nil)
	if err != nil {
		t.Fatalf("warm watch: %v", err)
	}
	if final.Output != want {
		t.Error("warm output differs from local run")
	}
	if runs := svc2.Engine().SimulationsRun(); runs != 0 {
		t.Errorf("warm service ran %d simulations, want 0 (store should answer everything)", runs)
	}
	if final.SimsRun != 0 || final.StoreHits == 0 {
		t.Errorf("warm job counters: sims=%d hits=%d, want 0 sims and >0 hits", final.SimsRun, final.StoreHits)
	}
}

// TestJobSimulationMatchesLocalReport: the simulation-form job returns
// exactly the bytes tifssim would print locally (shared report path).
func TestJobSimulationMatchesLocalReport(t *testing.T) {
	spec, err := tifs.WorkloadByName("OLTP-DB2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tifs.SimConfig{Cores: 4, EventsPerCore: 3_000}
	mech, err := tifs.MechanismByName("tifs-dedicated")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = mech
	jobs := []tifs.SimJob{
		{Spec: spec, Scale: tifs.ScaleSmall, Config: cfg},
		{Spec: spec, Scale: tifs.ScaleSmall, Config: tifs.SimConfig{Cores: 4, EventsPerCore: 3_000, Mechanism: tifs.NextLineOnly()}},
	}
	e := tifs.NewSimEngine(2, nil)
	defer e.Close()
	results := e.RunAll(context.Background(), jobs)
	want := tifs.SimReport(results[0], &results[1], tifs.ScaleSmall, 4)

	_, ts := startJobServer(t, t.TempDir())
	c := tifs.DialJobService(ts.URL, nil)
	c.Name = "sim-client"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := tifs.SubmitJob(ctx, c, tifs.JobRequest{
		Workload: "OLTP-DB2", Mechanism: "tifs-dedicated", Baseline: true,
		Scale: "small", Events: 3_000, Cores: 4,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := tifs.WatchJob(ctx, c, st.ID, nil)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.State != tifs.JobDone {
		t.Fatalf("job %s: %s", final.State, final.Error)
	}
	if final.Output != want {
		t.Errorf("server report differs from local tifssim bytes:\n--- want\n%s\n--- got\n%s", want, final.Output)
	}
}
