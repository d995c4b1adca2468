package experiments

import (
	"reflect"
	"sort"
	"testing"

	"tifs/internal/engine"
)

// TestGridMatchesExecution is the anti-drift guard for sharded sweeps:
// for every experiment, the work Grid enumerates must be exactly the
// work Run performs — measured by running each experiment against a
// fresh engine and comparing the engine's canonical key sets against the
// enumeration. A runner that gains a simulation without extending its
// Grid (or vice versa) fails here, before a sharded sweep can silently
// skip or re-run it.
func TestGridMatchesExecution(t *testing.T) {
	for _, r := range Registry() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			e := engine.New(4)
			defer e.Close()
			o := Options{
				Events:    3_000,
				Workloads: []string{"OLTP-DB2", "Web-Zeus"},
				Engine:    e,
			}
			out := r.Run(o)
			if out == "" {
				t.Fatal("experiment produced no output")
			}
			ranSims, ranTraces := e.Keys()

			if r.Grid == nil {
				if len(ranSims)+len(ranTraces) != 0 {
					t.Fatalf("experiment simulates (%d sims, %d traces) but enumerates no grid",
						len(ranSims), len(ranTraces))
				}
				return
			}
			jobs, traces := r.Grid(o)
			if !reflect.DeepEqual(jobKeys(jobs), ranSims) {
				t.Errorf("grid sims != executed sims:\ngrid %v\nran  %v", jobKeys(jobs), ranSims)
			}
			if !reflect.DeepEqual(traceKeys(traces), ranTraces) {
				t.Errorf("grid traces != executed traces:\ngrid %v\nran  %v", traceKeys(traces), ranTraces)
			}
		})
	}
}

// TestGridDeduplicatesAcrossExperiments: the union grid must carry each
// shared configuration (the next-line baselines, the repeated TIFS
// configs) exactly once.
func TestGridDeduplicatesAcrossExperiments(t *testing.T) {
	o := Options{Events: 3_000, Workloads: []string{"OLTP-DB2"}}
	jobs, traces, err := Grid(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Key()
		if seen[key] {
			t.Errorf("duplicate job in union grid: %s", key)
		}
		seen[key] = true
	}
	if len(traces) != 1 {
		t.Errorf("one workload needs 1 trace extraction, grid has %d", len(traces))
	}
	// fig13 and ablation-eos share the baseline and TIFS-dedicated; the
	// union must be smaller than the per-experiment sum.
	f13, _, _ := Grid([]string{"fig13"}, o)
	eos, _, _ := Grid([]string{"ablation-eos"}, o)
	both, _, _ := Grid([]string{"fig13", "ablation-eos"}, o)
	if len(both) >= len(f13)+len(eos) {
		t.Errorf("union grid (%d) did not deduplicate fig13 (%d) + eos (%d)",
			len(both), len(f13), len(eos))
	}

	if _, _, err := Grid([]string{"fig99"}, o); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func jobKeys(jobs []engine.Job) []string {
	var out []string // nil when empty, matching engine.Keys
	for _, j := range jobs {
		out = append(out, j.Key())
	}
	sort.Strings(out)
	return out
}

func traceKeys(traces []engine.TraceJob) []string {
	var out []string
	for _, tj := range traces {
		out = append(out, tj.Key())
	}
	sort.Strings(out)
	return out
}
