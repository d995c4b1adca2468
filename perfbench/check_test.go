package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/workload"
)

// TestOneByteChangeIsAFailedOp renders two suite experiments through
// RunSelected, as a pass does, and checks that the untouched output
// passes while a one-byte change to one experiment's bytes fails exactly
// that op, by name.
func TestOneByteChangeIsAFailedOp(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"table2", "table1"}
	eng := engine.New(parallelism)
	defer eng.Close()
	out, err := experiments.RunSelected(ids, experiments.Options{Scale: workload.ScaleSmall, Engine: eng}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var log strings.Builder
	c := &checker{refs: refs, log: &log}
	cold := c.sections("suite/cold", "suite", ids, out, nil, nil)
	if c.attempted != 2 || c.failed != 0 {
		t.Fatalf("unchanged output: %d attempted, %d failed:\n%s", c.attempted, c.failed, log.String())
	}

	// Flip one byte inside table1's table body.
	i := strings.Index(out, "OLTP-DB2")
	if i < 0 || i < strings.Index(out, "== table1") {
		t.Fatal("table1 body not found")
	}
	changed := out[:i] + "X" + out[i+1:]
	c.sections("suite/warm#0", "suite", ids, changed, nil, cold)
	if c.attempted != 4 || c.failed != 1 {
		t.Fatalf("one-byte change: %d attempted, %d failed, want 4 and 1:\n%s", c.attempted, c.failed, log.String())
	}
	if !strings.Contains(log.String(), "FAIL suite/warm#0/table1: output differs from reference suite/table1") {
		t.Fatalf("failure does not name the op:\n%s", log.String())
	}
}

// TestQuartilesMatchPython holds quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestSelfTimeSubtractsChildCoverage checks that overlapping children
// are subtracted once.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 10},
		{Parent: 0, Start: 2, End: 5},
		{Parent: 0, Start: 4, End: 8},
		{Parent: 1, Start: 3, End: 4},
	}
	got := selfTimes(spans)
	want := []time.Duration{4, 2, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		new  []float64
		want string
	}{
		{base, "within bound"},
		{shift(-2), "improved"},
		{shift(2), "regressed"},
		{[]float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, "unresolved"},
	} {
		if got := verdict(m, base, tc.new); got != tc.want {
			t.Errorf("verdict(%v) = %q, want %q", tc.new, got, tc.want)
		}
	}
}

// TestTracerParentsStoreWritesUnderTheirSimulation runs simulations on
// two workers with the tracer as observer and store wrapper, and checks
// that every simulation became one closed span holding its store write.
func TestTracerParentsStoreWritesUnderTheirSimulation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := newTracer()
	eng := engine.New(parallelism)
	defer eng.Close()
	// The engine reports a simulation done after handing out its result,
	// so wait for every done event before reading the spans.
	var done sync.WaitGroup
	eng.SetObserver(func(kind, key string) {
		tr.observe(kind, key)
		if kind == engine.EventSimDone {
			done.Done()
		}
	})
	eng.SetBackend(tracedStore{Backend: st, t: tr})

	var jobs []engine.Job
	for _, w := range workload.Suite()[:2] {
		for _, m := range []sim.Mechanism{sim.Baseline(), sim.FDIP()} {
			jobs = append(jobs, engine.Job{Spec: w, Scale: workload.ScaleSmall,
				Config: sim.Config{Cores: 2, EventsPerCore: 2000, Mechanism: m}})
		}
	}
	done.Add(len(jobs))
	op := tr.beginOp(phaseCold, "cold#0")
	eng.RunAll(context.Background(), jobs)
	done.Wait()
	tr.endOp(op)

	sims, puts := 0, 0
	for _, s := range tr.spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %s not closed", s.Name)
		}
		switch s.Layer {
		case layerSim:
			sims++
			if s.Parent != op {
				t.Errorf("%s parent %d, want the op %d", s.Name, s.Parent, op)
			}
		case layerStore:
			if s.Name == "store.put" {
				puts++
				if p := tr.spans[s.Parent]; p.Layer != layerSim || p.Key != s.Key {
					t.Errorf("store.put of %q is under %s", s.Key, p.Name)
				}
			}
		}
	}
	if sims != len(jobs) || puts != len(jobs) || len(tr.results) != len(jobs) {
		t.Fatalf("%d sim spans, %d puts, %d results; want %d each", sims, puts, len(tr.results), len(jobs))
	}
}
