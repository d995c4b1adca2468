package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/shard"
	"tifs/internal/store"
	"tifs/internal/workload"
)

// updateGolden regenerates testdata/golden/*.txt and
// testdata/golden/analysis/*.txt instead of comparing:
//
//	go test ./internal/experiments -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// goldenOptions is the fixed small-scale configuration every golden file
// is rendered under, on engine e. The reduced event budget keeps a full
// golden pass (13 experiments x several execution modes) in CI seconds;
// any change here invalidates every golden file, so regenerate them
// together.
func goldenOptions(e *engine.Engine) Options {
	return Options{
		Scale:  workload.ScaleSmall,
		Events: 4_000,
		Cores:  4,
		Engine: e,
	}
}

// runGolden renders one experiment under goldenOptions on a fresh engine
// of the given width, closed afterwards, so no run reuses another's
// memoized results.
func runGolden(r Runner, width int) string {
	e := engine.New(width)
	defer e.Close()
	return r.Run(goldenOptions(e))
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// readGolden loads one committed expectation.
func readGolden(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(id))
	if err != nil {
		t.Fatalf("missing golden output (regenerate with -update-golden): %v", err)
	}
	return string(data)
}

// TestGoldenOutputs holds every experiment to its committed small-scale
// output, byte for byte, under both serial and 8-way-parallel
// execution. This is the regression net under the whole sweep
// machinery: any change to simulator semantics, table rendering, or
// scheduling that alters a single byte of any experiment fails here.
func TestGoldenOutputs(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, r := range Registry() {
			out := runGolden(r, 0)
			if err := os.WriteFile(goldenPath(r.ID), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("golden outputs rewritten")
		return
	}

	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			want := readGolden(t, r.ID)
			if got := runGolden(r, 1); got != want {
				t.Errorf("serial output diverged from golden:\n--- golden\n%s\n--- got\n%s", want, got)
			}
			if got := runGolden(r, 8); got != want {
				t.Errorf("parallel output diverged from golden:\n--- golden\n%s\n--- got\n%s", want, got)
			}
		})
	}
}

// analysisGoldens is the second golden configuration: the offline
// analysis figures at budgets where the miss traces repeat. At
// goldenOptions' 4,000 events per core the traces barely recur, so
// fig6.txt prints one value for all four lookup policies and fig11.txt
// one value for all eight IML capacities. Here Fig. 3/5/6 run at small
// scale with 60,000 events per core, which separates the Fig. 6
// policies, and Fig. 11 runs at medium scale's default analysis budget
// on two workloads, where coverage rises with capacity. The files live
// in testdata/golden/analysis/ and regenerate with -update-golden.
var analysisGoldens = []struct {
	id string
	o  Options
}{
	{"fig3", Options{Scale: workload.ScaleSmall, Events: 60_000, Cores: 4}},
	{"fig5", Options{Scale: workload.ScaleSmall, Events: 60_000, Cores: 4}},
	{"fig6", Options{Scale: workload.ScaleSmall, Events: 60_000, Cores: 4}},
	{"fig11", Options{Scale: workload.ScaleMedium, Cores: 4,
		Workloads: []string{"OLTP-DB2", "Web-Apache"}}},
}

func analysisGoldenPath(id string) string {
	return filepath.Join("testdata", "golden", "analysis", id+".txt")
}

// TestGoldenAnalysisOutputs holds the analysis figures to their
// committed outputs under analysisGoldens, byte for byte, on a fresh
// engine of width 1 (the workloads one at a time, in suite order) and
// one of width 8 (all of them at once, finishing in any order). Each
// engine serves all four figures, so Fig. 3, 5 and 6 share their traces
// and grammars.
func TestGoldenAnalysisOutputs(t *testing.T) {
	widths := []int{1, 8}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden", "analysis"), 0o755); err != nil {
			t.Fatal(err)
		}
		widths = []int{0}
	}
	for _, width := range widths {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			e := engine.New(width)
			defer e.Close()
			for _, g := range analysisGoldens {
				r, ok := ByID(g.id)
				if !ok {
					t.Fatalf("unknown experiment %q", g.id)
				}
				o := g.o
				o.Engine = e
				got := r.Run(o)
				if *updateGolden {
					if err := os.WriteFile(analysisGoldenPath(g.id), []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if want := readAnalysisGolden(t, g.id); got != want {
					t.Errorf("%s output diverged from analysis golden:\n--- golden\n%s\n--- got\n%s", g.id, want, got)
				}
			}
		})
	}
}

// readAnalysisGolden loads one committed analysis expectation.
func readAnalysisGolden(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(analysisGoldenPath(id))
	if err != nil {
		t.Fatalf("missing analysis golden output (regenerate with -update-golden): %v", err)
	}
	return string(data)
}

// TestAnalysisFanOutCancel cancels a cold Fig. 11 pass at width 2 once
// both of its workload tasks are extracting. The runner must return with
// every goroutine it started gone, and the engine must not keep the
// aborted extractions: a later pass with a live context renders the
// golden bytes.
func TestAnalysisFanOutCancel(t *testing.T) {
	var o Options
	for _, g := range analysisGoldens {
		if g.id == "fig11" {
			o = g.o
		}
	}
	e := engine.New(2)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var starts atomic.Int32
	e.SetObserver(func(kind, _ string) {
		if kind == engine.EventTraceStart && starts.Add(1) == 2 {
			cancel()
		}
	})
	before := runtime.NumGoroutine()

	o.Engine = e
	o.Context = ctx
	Fig11(o)
	if ctx.Err() == nil {
		t.Fatal("the pass finished before both tasks started extracting")
	}
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the cancelled pass (%d before it)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}

	o.Context = nil
	if _, got := Fig11(o); got != readAnalysisGolden(t, "fig11") {
		t.Errorf("pass after cancellation diverged from analysis golden:\n%s", got)
	}
}

// TestGoldenShardedMerge runs the golden sweep as 1-, 2-, and 4-shard
// cooperating workers over a shared store directory, then renders every
// experiment from store hits alone and holds the merged output to the
// same golden bytes — the in-process twin of the CLI acceptance flow
// (tifsbench -shard i/N ... then -merge).
func TestGoldenShardedMerge(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating goldens")
	}
	// The expected "all" output is the goldens assembled in registry
	// order, exactly as RunSelected frames them.
	var wantAll strings.Builder
	for _, r := range Registry() {
		fmt.Fprintf(&wantAll, "== %s: %s\n\n", r.ID, r.Description)
		wantAll.WriteString(readGolden(t, r.ID))
		wantAll.WriteString("\n")
	}

	jobs, traces, err := Grid(nil, goldenOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	g := shard.Grid{Jobs: jobs, Traces: traces}

	for _, count := range []int{1, 2, 4} {
		count := count
		t.Run(fmt.Sprintf("%dshards", count), func(t *testing.T) {
			dir := t.TempDir()
			var wg sync.WaitGroup
			errs := make(chan error, count)
			for w := 0; w < count; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					st, err := store.Open(dir)
					if err != nil {
						errs <- err
						return
					}
					defer st.Close()
					c := shard.NewCoordinator(dir, g, count)
					c.TTL = time.Hour
					owner := fmt.Sprintf("golden-worker-%d", w)
					for {
						idx, ok, err := c.ClaimAny(owner)
						if err != nil || !ok {
							if err != nil {
								errs <- err
							}
							return
						}
						if _, err := shard.Run(context.Background(), st, g, idx, count, 2, nil, 0, 0); err != nil {
							errs <- err
							return
						}
						if err := c.Complete(idx); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Merge: a fresh engine over the filled store must render the
			// golden bytes without one new simulation.
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			e := engine.New(8)
			defer e.Close()
			e.SetBackend(st)
			got, err := RunSelected(nil, goldenOptions(e), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sims := e.SimulationsRun(); sims != 0 {
				t.Errorf("merge pass re-simulated %d grid points; store coverage incomplete", sims)
			}
			if got != wantAll.String() {
				t.Errorf("%d-shard merged output diverged from goldens:\n--- golden\n%s\n--- got\n%s",
					count, wantAll.String(), got)
			}
		})
	}
}
