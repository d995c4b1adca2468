package experiments

import (
	"strings"
	"testing"

	"tifs/internal/engine"
)

// opts builds a reduced-scope option set backed by a fresh engine of the
// given width, closed when the test ends, so the two runs under
// comparison share no memoized state.
func opts(t *testing.T, parallelism int) Options {
	e := engine.New(parallelism)
	t.Cleanup(e.Close)
	return Options{
		Events:    10_000,
		Workloads: []string{"OLTP-DB2", "DSS-Qry17"},
		Engine:    e,
	}
}

// TestParallelMatchesSerial asserts the engine's central guarantee: the
// rendered experiment tables are byte-identical whether the simulation
// grid runs serially or fanned out across eight workers.
func TestParallelMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig1", "fig12", "fig13", "ablation-eos"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		serial := r.Run(opts(t, 1))
		parallel := r.Run(opts(t, 8))
		if serial != parallel {
			t.Errorf("%s: parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s",
				id, serial, parallel)
		}
		if !strings.Contains(serial, "OLTP-DB2") {
			t.Errorf("%s: output missing workload row:\n%s", id, serial)
		}
	}
}

// TestSharedEngineDeduplicatesBaselines checks that one engine shared
// across runners simulates the common next-line baseline only once per
// workload: fig13 and ablation-eos both need it.
func TestSharedEngineDeduplicatesBaselines(t *testing.T) {
	e := engine.New(4)
	o := Options{
		Events:    8_000,
		Workloads: []string{"Web-Zeus"},
		Engine:    e,
	}
	if _, out := Fig13(o); out == "" {
		t.Fatal("fig13 produced no output")
	}
	after13 := e.SimulationsRun()
	// 1 baseline + 5 mechanisms.
	if after13 != 6 {
		t.Errorf("fig13 ran %d simulations, want 6", after13)
	}
	if out := AblationEndOfStream(o); out == "" {
		t.Fatal("ablation produced no output")
	}
	// The ablation adds eos-on (TIFS-dedicated, shared with fig13) and
	// eos-off; its baseline is a memo hit.
	if got := e.SimulationsRun(); got != after13+1 {
		t.Errorf("ablation re-simulated shared runs: %d total, want %d",
			got, after13+1)
	}
}
