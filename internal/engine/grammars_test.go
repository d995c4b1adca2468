package engine

import (
	"context"
	"reflect"
	"testing"

	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// TestEngineClose: Close drops the pooled runners, and a closed engine
// keeps working — later jobs build fresh runners that are dropped on
// return rather than re-pooled.
func TestEngineClose(t *testing.T) {
	oltp := spec(t, "OLTP-DB2")
	e := New(2)
	a := job(oltp, sim.Baseline())
	before := e.Run(context.Background(), a)
	e.Close()
	e.Close() // idempotent
	if n := len(e.runnerPool); n != 0 {
		t.Fatalf("runner pool holds %d runners after Close", n)
	}
	b := a
	b.Config.EventsPerCore = 9_000 // a fresh key, so it really simulates
	after := e.Run(context.Background(), b)
	if after.Cycles == 0 || before.Cycles == 0 {
		t.Fatal("runs around Close produced empty results")
	}
	if n := len(e.runnerPool); n != 0 {
		t.Errorf("closed engine re-pooled %d runners", n)
	}
}

// grammarFromTraces derives what Grammars should return for one core,
// straight from the memoized traces.
func grammarFromTraces(recs []trace.MissRecord, dropSequential bool) *sequitur.Snapshot {
	if dropSequential {
		recs = trace.DropSequential(recs)
	}
	g := sequitur.New(len(recs))
	for _, r := range recs {
		g.Append(uint64(r.Block))
	}
	return g.Snapshot()
}

// TestGrammarsMemoized: repeated requests return the identical snapshot
// set (no rebuild), the content matches a direct SEQUITUR pass over the
// same traces, and the two analysis variants are distinct entries.
func TestGrammarsMemoized(t *testing.T) {
	e := New(4)
	oltp := spec(t, "OLTP-DB2")
	tj := TraceJob{Spec: oltp, Scale: workload.ScaleSmall, Cores: 4, Events: 10_000}

	full := e.Grammars(context.Background(), tj, false)
	if len(full) != 4 {
		t.Fatalf("got %d grammars", len(full))
	}
	again := e.Grammars(context.Background(), tj, false)
	if &full[0] != &again[0] {
		t.Error("memoized grammars were rebuilt")
	}
	if got := e.GrammarBuilds(); got != 1 {
		t.Errorf("GrammarBuilds = %d, want 1", got)
	}

	noseq := e.Grammars(context.Background(), tj, true)
	if got := e.GrammarBuilds(); got != 2 {
		t.Errorf("GrammarBuilds after variant = %d, want 2", got)
	}

	recs := e.MissTraces(context.Background(), oltp, workload.ScaleSmall, 4, 10_000)
	for i := range recs {
		if want := grammarFromTraces(recs[i], false); !reflect.DeepEqual(full[i], want) {
			t.Errorf("core %d full grammar diverges from direct SEQUITUR pass", i)
		}
		if want := grammarFromTraces(recs[i], true); !reflect.DeepEqual(noseq[i], want) {
			t.Errorf("core %d no-seq grammar diverges from direct SEQUITUR pass", i)
		}
	}
}

// TestGrammarStoreTier: a warm process serves grammars from the store
// with zero SEQUITUR builds and zero simulations; a corrupted grammar
// blob degrades to one rebuild — from the still-cached traces — with
// identical content.
func TestGrammarStoreTier(t *testing.T) {
	dir := t.TempDir()
	oltp := spec(t, "OLTP-DB2")
	tj := TraceJob{Spec: oltp, Scale: workload.ScaleSmall, Cores: 4, Events: 8_000}
	key := grammarKey(tj, false)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(2)
	e1.SetBackend(st1)
	cold := e1.Grammars(context.Background(), tj, false)
	if got := e1.GrammarBuilds(); got != 1 {
		t.Fatalf("cold GrammarBuilds = %d, want 1", got)
	}
	if !st1.HasGrammars(key) {
		t.Fatal("grammars not persisted")
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(2)
	e2.SetBackend(st2)
	warm := e2.Grammars(context.Background(), tj, false)
	if got := e2.GrammarBuilds(); got != 0 {
		t.Errorf("warm GrammarBuilds = %d, want 0", got)
	}
	if got := e2.StoreHits(); got != 1 {
		t.Errorf("warm StoreHits = %d, want 1", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("store round trip changed grammar snapshots")
	}
	st2.Close()

	// A store holding only a corrupt blob under the grammar address
	// (duplicate puts keep the first payload, so the corruption must be
	// seeded first): the engine must treat it as a miss and rebuild,
	// arriving at the same snapshots.
	st3, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	st3.PutBlob(store.Address(store.KindGrammars, key), []byte("not a grammar"))
	e3 := New(2)
	e3.SetBackend(st3)
	degraded := e3.Grammars(context.Background(), tj, false)
	if got := e3.GrammarBuilds(); got != 1 {
		t.Errorf("degraded GrammarBuilds = %d, want 1 (recompute)", got)
	}
	if !reflect.DeepEqual(cold, degraded) {
		t.Error("corrupt grammar blob changed analysis inputs")
	}
}
