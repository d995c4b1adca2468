package tifs_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tifs"
)

func TestWorkloadsAPI(t *testing.T) {
	ws := tifs.Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if _, err := tifs.WorkloadByName("OLTP-Oracle"); err != nil {
		t.Error(err)
	}
	if _, err := tifs.WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := tifs.ParseScale("medium"); err != nil {
		t.Error(err)
	}
}

func TestMissExtractionAndAnalyses(t *testing.T) {
	spec, _ := tifs.WorkloadByName("Web-Zeus")
	w := tifs.BuildWorkload(spec, tifs.ScaleSmall, 1)
	misses := tifs.ExtractMisses(w, 0, 100_000)
	if len(misses) == 0 {
		t.Fatal("no misses")
	}
	blocks := tifs.MissBlocks(misses)
	cat := tifs.Categorize(blocks)
	if cat.Counts.Total() != uint64(len(misses)) {
		t.Error("categorization total mismatch")
	}
	hs := tifs.Heuristics(blocks)
	if len(hs) != 4 {
		t.Errorf("heuristics = %d", len(hs))
	}
}

func TestSimulateAPI(t *testing.T) {
	spec, _ := tifs.WorkloadByName("DSS-Qry2")
	r := tifs.Simulate(spec, tifs.ScaleSmall, tifs.SimConfig{
		EventsPerCore: 40_000,
		Mechanism:     tifs.TIFS(tifs.TIFSDedicated()),
	})
	if r.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if r.TIFS == nil {
		t.Error("TIFS stats missing")
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	if len(tifs.Experiments()) < 13 {
		t.Errorf("registry has %d entries", len(tifs.Experiments()))
	}
	out, err := tifs.RunExperiments([]string{"table2"}, tifs.ExperimentOptions{Scale: tifs.ScaleSmall})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "8MB 16-way") {
		t.Errorf("table2 output missing L2 row:\n%s", out)
	}
	if _, err := tifs.RunExperiments([]string{"fig99"}, tifs.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestShardedSweepAPI drives the public sharding surface end to end:
// enumerate a grid, run both workers of a 2-shard sweep into one store
// directory, and verify a merge renders the same bytes as a direct run
// with zero re-simulation.
func TestShardedSweepAPI(t *testing.T) {
	dir := t.TempDir()
	o := tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    3_000,
		Workloads: []string{"OLTP-DB2"},
	}
	grid, err := tifs.ExperimentGrid([]string{"fig12", "fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Jobs) == 0 {
		t.Fatal("grid enumerated no jobs")
	}
	if _, err := tifs.ExperimentGrid([]string{"fig99"}, o); err == nil {
		t.Error("unknown experiment id accepted")
	}

	var total int
	for index := 0; index < 2; index++ {
		rep, err := tifs.ShardedSweep(context.Background(), tifs.StoreLocation{Dir: dir}, index, 2, grid, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += rep.Jobs + rep.Traces
	}
	if total != len(grid.Jobs)+len(grid.Traces) {
		t.Errorf("shards covered %d of %d grid points", total, len(grid.Jobs)+len(grid.Traces))
	}

	st, err := tifs.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if jobs, traces := tifs.MissingFromStore(st, grid); len(jobs)+len(traces) != 0 {
		t.Fatalf("store missing %d jobs, %d traces after both shards ran", len(jobs), len(traces))
	}
	e := tifs.NewSimEngine(0, st)
	o.Engine = e
	merged, err := tifs.RunExperiments([]string{"fig13"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.SimulationsRun(); n != 0 {
		t.Errorf("merge re-simulated %d grid points", n)
	}
	direct, err := tifs.RunExperiments([]string{"fig13"}, tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    3_000,
		Workloads: []string{"OLTP-DB2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged != direct {
		t.Errorf("merged output differs from direct run:\n--- merged\n%s\n--- direct\n%s", merged, direct)
	}
}

// TestShardedSweepRejectsAmbiguousLocation: a store location must name
// exactly one of a directory and a URL. Both sweep entry points refuse
// either mistake before they open a store or claim a lease, so neither
// the directory nor the server sees any trace of the attempt.
func TestShardedSweepRejectsAmbiguousLocation(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer srv.Close()
	dir := filepath.Join(t.TempDir(), "store")
	grid, err := tifs.ExperimentGrid([]string{"fig13"}, tifs.ExperimentOptions{
		Scale: tifs.ScaleSmall, Events: 3_000, Workloads: []string{"OLTP-DB2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, loc := range map[string]tifs.StoreLocation{
		"both":    {Dir: dir, URL: srv.URL},
		"neither": {},
	} {
		if _, err := tifs.ShardedSweep(ctx, loc, 0, 2, grid, 1); err == nil {
			t.Errorf("%s: ShardedSweep accepted %+v", name, loc)
		}
		if reps, err := tifs.ShardedSweepAuto(ctx, loc, 2, grid, 1); err == nil || len(reps) != 0 {
			t.Errorf("%s: ShardedSweepAuto accepted %+v (%d reports)", name, loc, len(reps))
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a rejected location opened the store directory (stat: %v)", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("a rejected location sent %d requests to the server", n)
	}
}

func TestExperimentSingleWorkload(t *testing.T) {
	out, err := tifs.RunExperiments([]string{"fig6"}, tifs.ExperimentOptions{
		Scale:     tifs.ScaleSmall,
		Events:    80_000,
		Cores:     1,
		Workloads: []string{"DSS-Qry17"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DSS-Qry17") || strings.Contains(out, "OLTP") {
		t.Errorf("workload filter not applied:\n%s", out)
	}
}
