package tifs_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tifs"
	"tifs/internal/remotestore"
	"tifs/internal/retry"
	"tifs/internal/store"
)

// remoteOpts is the small grid every stage of the remote integration
// tests shares (mirrors TestShardedSweepAPI's cost).
func remoteOpts() tifs.ExperimentOptions {
	return tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    3_000,
		Workloads: []string{"OLTP-DB2"},
	}
}

// flakyServer serves a store directory over HTTP and can "crash"
// (reset every connection) and "restart" on command without changing
// its URL — the deterministic stand-in for kill -9 plus a relaunch.
type flakyServer struct {
	*httptest.Server
	dead atomic.Bool
}

func newFlakyServer(t *testing.T, st *store.Store, dir string) *flakyServer {
	t.Helper()
	f := &flakyServer{}
	inner := remotestore.NewServer(st, dir).Handler()
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.dead.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			t.Error("response writer not hijackable")
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.Server.Close)
	return f
}

// TestRemoteShardedSweepByteIdentical is the acceptance path: two shard
// workers that share nothing but a server URL — one of them behind a
// deterministic fault matrix of drops, torn bodies, 5xx rejections, and
// latency — fill the remote store, and a remote merge renders bytes
// identical to a storeless serial run with zero re-simulation.
func TestRemoteShardedSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := newFlakyServer(t, st, dir)

	o := remoteOpts()
	grid, err := tifs.ExperimentGrid([]string{"fig12", "fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Worker 0 rides through one of everything the injector can throw:
	// a reset GET, a mid-read torn body, two 5xx-rejected uploads, a
	// slow manifest read, and a reset manifest write.
	rt, err := tifs.NetFaultTransport(
		"drop:GET:/v1/blob:1,torn:GET:/v1/blob:2,503:PUT:/v1/blob:1:2,latency20ms:GET:/v1/manifest:1,drop:PUT:/v1/manifest:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rep0, err := tifs.ShardedSweep(ctx, tifs.StoreLocation{URL: srv.URL, HTTPClient: &http.Client{Transport: rt}}, 0, 2, grid, 0)
	if err != nil {
		t.Fatalf("worker 0 under faults: %v", err)
	}
	rep1, err := tifs.ShardedSweep(ctx, tifs.StoreLocation{URL: srv.URL}, 1, 2, grid, 0)
	if err != nil {
		t.Fatalf("worker 1: %v", err)
	}
	if got, want := rep0.Jobs+rep0.Traces+rep1.Jobs+rep1.Traces, len(grid.Jobs)+len(grid.Traces); got != want {
		t.Errorf("shards covered %d of %d grid points", got, want)
	}

	rs := tifs.DialRemoteStore(ctx, srv.URL, nil)
	defer rs.Close()
	if jobs, traces := tifs.MissingFromStore(rs, grid); len(jobs)+len(traces) != 0 {
		t.Fatalf("remote store missing %d jobs, %d traces after both shards ran", len(jobs), len(traces))
	}
	e := tifs.NewSimEngine(0, rs)
	o.Engine = e
	merged, err := tifs.RunExperiments([]string{"fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SimulationsRun(); n != 0 {
		t.Errorf("remote merge re-simulated %d grid points", n)
	}
	direct, err := tifs.RunExperiments([]string{"fig13"}, remoteOpts())
	if err != nil {
		t.Fatal(err)
	}
	if merged != direct {
		t.Errorf("remote merge differs from direct run:\n--- merged\n%s\n--- direct\n%s", merged, direct)
	}
}

// TestRemoteOutageDegradesAndReconciles crashes the server outright:
// the client's breaker opens, the run computes everything locally with
// write-backs queued (same bytes, no blocking), and after the restart a
// flush reconciles the queue so a fresh client merges entirely from
// store hits.
func TestRemoteOutageDegradesAndReconciles(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := newFlakyServer(t, st, dir)

	rs := tifs.DialRemoteStore(context.Background(), srv.URL, nil)
	defer rs.Close()
	// One instant attempt per op and a held-open breaker keep the
	// outage phase deterministic and fast.
	rs.Retry = retry.Policy{Attempts: 1, Sleep: func(time.Duration) {}, Classify: retry.TransientNetwork}
	rs.HedgeDelay = -1
	rs.BreakAfter = 1
	rs.Cooldown = time.Hour

	srv.dead.Store(true)

	o := remoteOpts()
	o.Engine = tifs.NewSimEngine(0, rs)
	out, err := tifs.RunExperiments([]string{"fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tifs.RunExperiments([]string{"fig13"}, remoteOpts())
	if err != nil {
		t.Fatal(err)
	}
	if out != direct {
		t.Errorf("degraded run differs from direct run:\n--- degraded\n%s\n--- direct\n%s", out, direct)
	}
	stats := rs.Stats()
	if stats.BreakerOpens == 0 {
		t.Error("outage never opened the breaker")
	}
	if stats.DegradedOps == 0 {
		t.Error("no operation short-circuited while the breaker was open")
	}
	queued := rs.QueueDepth()
	if queued == 0 {
		t.Fatal("outage queued no write-backs")
	}

	// Restart and reconcile.
	srv.dead.Store(false)
	rs.Flush(context.Background())
	if depth := rs.QueueDepth(); depth != 0 {
		t.Fatalf("flush left %d write-backs queued", depth)
	}

	// A fresh, untuned client must now see every grid point and merge
	// the identical bytes from store hits alone — the reconciled
	// write-backs are the right bytes, not just present.
	clean := tifs.DialRemoteStore(context.Background(), srv.URL, nil)
	defer clean.Close()
	grid, err := tifs.ExperimentGrid([]string{"fig13"}, remoteOpts())
	if err != nil {
		t.Fatal(err)
	}
	if jobs, traces := tifs.MissingFromStore(clean, grid); len(jobs)+len(traces) != 0 {
		t.Fatalf("store missing %d jobs, %d traces after reconcile", len(jobs), len(traces))
	}
	e := tifs.NewSimEngine(0, clean)
	o2 := remoteOpts()
	o2.Engine = e
	merged, err := tifs.RunExperiments([]string{"fig13"}, o2)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SimulationsRun(); n != 0 {
		t.Errorf("post-reconcile merge re-simulated %d grid points", n)
	}
	if merged != direct {
		t.Errorf("post-reconcile merge differs from direct run:\n--- merged\n%s\n--- direct\n%s", merged, direct)
	}
}
