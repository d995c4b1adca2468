package tifs_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// countingTransport counts the requests a client sends through it.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestOpenStore covers the one path from a store location to a
// backend: an empty location is no store; a location naming both a
// directory and a URL is refused before anything opens; a directory
// opens the local store; and a URL dials the remote client over
// loc.HTTPClient, sending nothing until the first store operation.
func TestOpenStore(t *testing.T) {
	ctx := context.Background()
	if st, err := tifs.OpenStore(ctx, tifs.StoreLocation{}); st != nil || err != nil {
		t.Errorf("empty location: got %v, %v; want no store and no error", st, err)
	}

	serveDir := t.TempDir()
	served, err := store.Open(serveDir)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	var requests atomic.Int64
	inner := remotestore.NewServer(served, serveDir).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	dir := filepath.Join(t.TempDir(), "store")
	if st, err := tifs.OpenStore(ctx, tifs.StoreLocation{Dir: dir, URL: srv.URL}); st != nil || err == nil {
		t.Errorf("both set: got %v, %v; want an error and no store", st, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a location naming both opened the store directory (stat: %v)", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("a location naming both sent %d requests to the server", n)
	}

	spec, err := tifs.WorkloadByName("OLTP-DB2")
	if err != nil {
		t.Fatal(err)
	}
	want := tifs.Simulate(spec, tifs.ScaleSmall, tifs.SimConfig{EventsPerCore: 2_000, Mechanism: tifs.FDIP()})
	local, err := tifs.OpenStore(ctx, tifs.StoreLocation{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := local.(*tifs.ResultStore); !ok {
		t.Errorf("a directory opened a %T, want *tifs.ResultStore", local)
	}
	local.PutResult("k", want)
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := tifs.OpenStore(ctx, tifs.StoreLocation{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.GetResult("k"); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("directory store across reopen: got %+v (hit %v), want %+v", got, ok, want)
	}
	reopened.Close()

	via := &countingTransport{}
	remote, err := tifs.OpenStore(ctx, tifs.StoreLocation{URL: srv.URL, HTTPClient: &http.Client{Transport: via}})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, ok := remote.(*tifs.RemoteStore); !ok {
		t.Errorf("a URL dialed a %T, want *tifs.RemoteStore", remote)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("dialing sent %d requests; it performs no I/O", n)
	}
	remote.PutResult("k", want)
	if got, ok := remote.GetResult("k"); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("remote store round trip: got %+v (hit %v), want %+v", got, ok, want)
	}
	if via.n.Load() == 0 || via.n.Load() != requests.Load() {
		t.Errorf("%d of the server's %d requests came through loc.HTTPClient, want all", via.n.Load(), requests.Load())
	}
}
