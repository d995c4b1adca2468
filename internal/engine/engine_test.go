package engine

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tifs/internal/core"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/workload"
)

func spec(t testing.TB, name string) workload.Spec {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	return s
}

func job(s workload.Spec, m sim.Mechanism) Job {
	return Job{Spec: s, Scale: workload.ScaleSmall, Config: sim.Config{
		EventsPerCore: 8_000,
		Mechanism:     m,
	}}
}

func TestRunAllPreservesOrderAndMatchesSerial(t *testing.T) {
	oltp := spec(t, "OLTP-DB2")
	web := spec(t, "Web-Zeus")
	jobs := []Job{
		job(oltp, sim.Baseline()),
		job(web, sim.TIFS(core.DedicatedConfig())),
		job(oltp, sim.FDIP()),
		job(web, sim.Baseline()),
	}

	parallel := New(8).RunAll(context.Background(), jobs)
	serial := New(1).RunAll(context.Background(), jobs)
	if len(parallel) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(parallel), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(parallel[i], serial[i]) {
			t.Errorf("job %d: parallel and serial results differ:\n%+v\nvs\n%+v",
				i, parallel[i], serial[i])
		}
	}
	// Sanity: the results really are in submission order.
	if parallel[0].Workload != "OLTP-DB2" || parallel[0].Mechanism != "next-line" {
		t.Errorf("result 0 out of order: %s/%s", parallel[0].Workload, parallel[0].Mechanism)
	}
	if parallel[1].Workload != "Web-Zeus" || parallel[1].Mechanism != "TIFS-dedicated" {
		t.Errorf("result 1 out of order: %s/%s", parallel[1].Workload, parallel[1].Mechanism)
	}
}

func TestDuplicateJobsSimulateOnce(t *testing.T) {
	e := New(4)
	oltp := spec(t, "OLTP-DB2")
	j := job(oltp, sim.Baseline())
	res := e.RunAll(context.Background(), []Job{j, j, j, j})
	if got := e.SimulationsRun(); got != 1 {
		t.Errorf("4 identical jobs ran %d simulations, want 1", got)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[0], res[i]) {
			t.Errorf("duplicate job %d returned a different result", i)
		}
	}
	// A later submission of the same job is also a memo hit.
	e.Run(context.Background(), j)
	if got := e.SimulationsRun(); got != 1 {
		t.Errorf("re-run after completion ran %d simulations, want 1", got)
	}
}

// TestRunReport: with baseline set, a point's report renders both
// results, speedup line included, from one simulation each; a point
// already on the baseline runs alone; a cancelled context renders
// nothing.
func TestRunReport(t *testing.T) {
	ctx := context.Background()
	oltp := spec(t, "OLTP-DB2")
	fdip, base := job(oltp, sim.FDIP()), job(oltp, sim.Baseline())
	e := New(2)
	got := e.RunReport(ctx, fdip, true)
	res := e.RunAll(ctx, []Job{fdip, base})
	if want := sim.Report(res[0], &res[1], workload.ScaleSmall, 0); got != want {
		t.Errorf("report with baseline:\n%s\nwant\n%s", got, want)
	}
	if got, want := e.RunReport(ctx, fdip, false), sim.Report(res[0], nil, workload.ScaleSmall, 0); got != want {
		t.Errorf("report without baseline:\n%s\nwant\n%s", got, want)
	}
	if got, want := e.RunReport(ctx, base, true), sim.Report(res[1], nil, workload.ScaleSmall, 0); got != want {
		t.Errorf("baseline point's report:\n%s\nwant\n%s", got, want)
	}
	if n := e.SimulationsRun(); n != 2 {
		t.Errorf("ran %d simulations, want 2 (the point and its baseline)", n)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if got := e.RunReport(cancelled, job(oltp, sim.Perfect()), true); got != "" {
		t.Errorf("cancelled RunReport rendered %q", got)
	}
}

func TestCachedResultsDoNotAlias(t *testing.T) {
	e := New(2)
	j := job(spec(t, "DSS-Qry2"), sim.TIFS(core.VirtualizedConfig()))
	a := e.Run(context.Background(), j)
	b := e.Run(context.Background(), j)
	if a.TIFS == nil || b.TIFS == nil {
		t.Fatal("TIFS stats missing")
	}
	if &a.PerCore[0] == &b.PerCore[0] || a.TIFS == b.TIFS {
		t.Error("cached result shares mutable storage between callers")
	}
	a.PerCore[0].Cycles = 0
	a.TIFS.IndexLookups = 0
	c := e.Run(context.Background(), j)
	if c.PerCore[0].Cycles == 0 || c.TIFS.IndexLookups == 0 {
		t.Error("mutating a returned result corrupted the cache")
	}
}

// TestConcurrentTIFSRuns drives many simultaneous TIFS simulations —
// each sharing one TIFS index table across its cores, and all sharing
// the memoized workload program image — to let the race detector check
// the concurrent-read safety the engine relies on.
func TestConcurrentTIFSRuns(t *testing.T) {
	e := New(8)
	oltp := spec(t, "OLTP-DB2")
	web := spec(t, "Web-Apache")
	var jobs []Job
	for i := 0; i < 3; i++ { // duplicates join in-flight runs
		jobs = append(jobs,
			job(oltp, sim.TIFS(core.DedicatedConfig())),
			job(oltp, sim.TIFS(core.VirtualizedConfig())),
			job(web, sim.TIFS(core.DedicatedConfig())),
			job(web, sim.Baseline()),
		)
	}
	res := e.RunAll(context.Background(), jobs)
	for i, r := range res {
		if r.Cycles == 0 {
			t.Errorf("job %d produced an empty result", i)
		}
	}
	if got := e.SimulationsRun(); got != 4 {
		t.Errorf("ran %d distinct simulations, want 4", got)
	}
}

// TestStoreSecondTier checks the persistent tier end to end: a second
// engine (fresh in-process memo, same store) must satisfy every job and
// trace extraction from disk with bit-identical results, and a third
// engine without the store must agree too.
func TestStoreSecondTier(t *testing.T) {
	dir := t.TempDir()
	oltp := spec(t, "OLTP-DB2")
	web := spec(t, "Web-Zeus")
	jobs := []Job{
		job(oltp, sim.Baseline()),
		job(oltp, sim.TIFS(core.VirtualizedConfig())),
		job(web, sim.FDIP()),
	}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(2)
	e1.SetBackend(st1)
	cold := e1.RunAll(context.Background(), jobs)
	coldTraces := e1.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 5_000)
	if got := e1.SimulationsRun(); got != 3 {
		t.Fatalf("cold engine ran %d simulations, want 3", got)
	}
	if got := e1.StoreHits(); got != 0 {
		t.Fatalf("cold engine had %d store hits, want 0", got)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(2)
	e2.SetBackend(st2)
	warm := e2.RunAll(context.Background(), jobs)
	warmTraces := e2.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 5_000)
	if got := e2.SimulationsRun(); got != 0 {
		t.Errorf("warm engine ran %d simulations, want 0", got)
	}
	if got := e2.StoreHits(); got != 4 {
		t.Errorf("warm engine had %d store hits, want 4 (3 jobs + traces)", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("store round trip changed results:\ncold %+v\nwarm %+v", cold, warm)
	}
	if !reflect.DeepEqual(coldTraces, warmTraces) {
		t.Error("store round trip changed miss traces")
	}

	plain := New(2).RunAll(context.Background(), jobs)
	if !reflect.DeepEqual(cold, plain) {
		t.Error("results with the store differ from results without it")
	}
}

// TestSetBackendTypedNilStoreDisablesTier: a nil *store.Store, the value
// a caller without a cache directory holds, must leave the persistent
// tier off rather than become a non-nil interface whose methods panic.
func TestSetBackendTypedNilStoreDisablesTier(t *testing.T) {
	e := New(2)
	defer e.Close()
	e.SetBackend((*store.Store)(nil))
	if e.store != nil {
		t.Fatalf("typed-nil store left the tier on: %#v", e.store)
	}
	oltp := spec(t, "OLTP-DB2")
	res := e.RunAll(context.Background(), []Job{job(oltp, sim.Baseline()), job(oltp, sim.FDIP())})
	if res[0].Cycles == 0 || res[1].Cycles == 0 {
		t.Error("batch over the disabled tier returned empty results")
	}
	if recs := e.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 5_000); len(recs) != 4 {
		t.Errorf("got %d cores of miss traces, want 4", len(recs))
	}
	if e.StoreHits() != 0 || e.SimulationsRun() != 2 {
		t.Errorf("store hits %d, simulations %d; want 0 and 2", e.StoreHits(), e.SimulationsRun())
	}
}

func TestMissTracesMemoized(t *testing.T) {
	e := New(4)
	oltp := spec(t, "OLTP-DB2")
	a := e.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 10_000)
	b := e.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 10_000)
	if len(a) != 4 {
		t.Fatalf("got %d cores", len(a))
	}
	if &a[0] != &b[0] {
		t.Error("memoized traces were re-extracted")
	}
	for i, recs := range a {
		if len(recs) == 0 {
			t.Errorf("core %d extracted no misses", i)
		}
	}
}

// TestObserverHearsDoneBeforeWaitersWake: a simulation's done event
// reaches the observer before RunAll returns its result, even when the
// observer is slow, so a caller counting work through the observer (the
// sweep service's per-job counters) has all of it once the call returns.
func TestObserverHearsDoneBeforeWaitersWake(t *testing.T) {
	e := New(2)
	defer e.Close()
	var done atomic.Int32
	e.SetObserver(func(kind, _ string) {
		if kind == EventSimDone {
			time.Sleep(20 * time.Millisecond)
			done.Add(1)
		}
	})
	oltp := spec(t, "OLTP-DB2")
	e.RunAll(context.Background(), []Job{job(oltp, sim.Baseline()), job(oltp, sim.FDIP())})
	if got := done.Load(); got != 2 {
		t.Errorf("observer heard %d sim-done events by the time RunAll returned, want 2", got)
	}
}
