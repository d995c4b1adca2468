package sequitur

import (
	"reflect"
	"testing"
	"testing/quick"

	"tifs/internal/trace"
	"tifs/internal/workload"
	"tifs/internal/xrand"
)

func expandEquals(t *testing.T, seq []uint64) *Snapshot {
	t.Helper()
	snap := Build(seq)
	got := snap.Sequence()
	if len(got) != len(seq) {
		t.Fatalf("expansion length %d, want %d", len(got), len(seq))
	}
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("expansion[%d] = %d, want %d", i, got[i], seq[i])
		}
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	matchReference(t, t.Name(), seq)
	return snap
}

func TestEmptyAndSingle(t *testing.T) {
	snap := Build(nil)
	if snap.NumRules() != 1 || len(snap.Sequence()) != 0 {
		t.Errorf("empty grammar: %d rules, %d terminals", snap.NumRules(), len(snap.Sequence()))
	}
	expandEquals(t, []uint64{42})
}

func TestClassicExample(t *testing.T) {
	// "abcdbc" from the SEQUITUR paper: yields S -> a A d A, A -> b c.
	seq := []uint64{'a', 'b', 'c', 'd', 'b', 'c'}
	snap := expandEquals(t, seq)
	if snap.NumRules() != 2 {
		t.Fatalf("rules = %d, want 2", snap.NumRules())
	}
	r := snap.Rules[1]
	if r.ExpLen != 2 || r.Uses != 2 {
		t.Errorf("rule 1 = %+v", r)
	}
	ex := snap.Expand(1)
	if len(ex) != 2 || ex[0] != 'b' || ex[1] != 'c' {
		t.Errorf("rule 1 expansion = %v", ex)
	}
}

func TestNestedHierarchy(t *testing.T) {
	// "abcdbcabcdbc": S -> A A, A -> a B d B, B -> b c.
	seq := []uint64{'a', 'b', 'c', 'd', 'b', 'c', 'a', 'b', 'c', 'd', 'b', 'c'}
	snap := expandEquals(t, seq)
	if snap.NumRules() != 3 {
		t.Errorf("rules = %d, want 3 (hierarchy)", snap.NumRules())
	}
	// The root should be two references to one rule of expansion length 6.
	root := snap.Rules[0]
	if len(root.Syms) != 2 || !root.Syms[0].IsRule || !root.Syms[1].IsRule {
		t.Fatalf("root = %+v", root)
	}
	if snap.Rules[root.Syms[0].Rule].ExpLen != 6 {
		t.Errorf("top rule ExpLen = %d, want 6", snap.Rules[root.Syms[0].Rule].ExpLen)
	}
}

func TestRunsOfIdenticalSymbols(t *testing.T) {
	for n := 2; n <= 33; n++ {
		seq := make([]uint64, n)
		for i := range seq {
			seq[i] = 7
		}
		expandEquals(t, seq)
	}
}

func TestAlternating(t *testing.T) {
	seq := make([]uint64, 64)
	for i := range seq {
		seq[i] = uint64(i % 2)
	}
	snap := expandEquals(t, seq)
	if snap.NumRules() < 2 {
		t.Error("alternating sequence should compress")
	}
}

func TestNoRepetition(t *testing.T) {
	seq := make([]uint64, 100)
	for i := range seq {
		seq[i] = uint64(i)
	}
	snap := expandEquals(t, seq)
	if snap.NumRules() != 1 {
		t.Errorf("distinct sequence created %d rules, want 1", snap.NumRules())
	}
}

func TestRepeatedStreamCompresses(t *testing.T) {
	// A 50-block "temporal stream" repeated 20 times with distinct noise
	// between repetitions: the stream must become (nested) rules with a
	// combined top-level footprint far below 50*20.
	stream := make([]uint64, 50)
	for i := range stream {
		stream[i] = uint64(1000 + i*3)
	}
	var seq []uint64
	noise := uint64(1 << 20)
	for rep := 0; rep < 20; rep++ {
		seq = append(seq, stream...)
		seq = append(seq, noise)
		noise++
	}
	snap := expandEquals(t, seq)
	// Find the largest non-root rule expansion.
	var maxExp uint64
	for _, r := range snap.Rules[1:] {
		if r.ExpLen > maxExp {
			maxExp = r.ExpLen
		}
	}
	if maxExp < 45 {
		t.Errorf("largest rule covers %d of the 50-block stream", maxExp)
	}
	rootLen := len(snap.Rules[0].Syms)
	if rootLen > 80 {
		t.Errorf("root has %d symbols; repetition not captured", rootLen)
	}
}

func TestLenCounts(t *testing.T) {
	g := New(0)
	for i := 0; i < 10; i++ {
		g.Append(uint64(i % 3))
	}
	if g.Len() != 10 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestSnapshotTwiceConsistent(t *testing.T) {
	g := New(0)
	seq := []uint64{1, 2, 3, 1, 2, 3, 4, 1, 2}
	for _, v := range seq {
		g.Append(v)
	}
	s1 := g.Snapshot()
	s2 := g.Snapshot()
	if s1.NumRules() != s2.NumRules() {
		t.Error("snapshots differ")
	}
	// Grammar remains appendable after snapshotting.
	g.Append(3)
	s3 := g.Snapshot()
	seq3 := s3.Sequence()
	if len(seq3) != len(seq)+1 || seq3[len(seq3)-1] != 3 {
		t.Errorf("post-snapshot append broken: %v", seq3)
	}
	if err := s3.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripRandomSmallAlphabet(t *testing.T) {
	// Small alphabets maximize digram collisions, stressing rule churn.
	// The grammar must also be the reference model's.
	f := func(raw []uint8) bool {
		seq := make([]uint64, len(raw))
		for i, v := range raw {
			seq[i] = uint64(v % 4)
		}
		snap := Build(seq)
		got := snap.Sequence()
		if len(got) != len(seq) {
			return false
		}
		for i := range seq {
			if got[i] != seq[i] {
				return false
			}
		}
		return snap.CheckInvariants() == nil && reflect.DeepEqual(snap, refBuild(seq))
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTripStructured(t *testing.T) {
	// Structured repetition: random stream segments repeated in random
	// order, like real miss traces. The grammar must also be the
	// reference model's.
	f := func(seed uint64, nStreams, reps uint8) bool {
		rng := xrand.New(seed)
		ns := int(nStreams%5) + 2
		streams := make([][]uint64, ns)
		for i := range streams {
			streams[i] = make([]uint64, rng.Range(3, 30))
			for j := range streams[i] {
				streams[i][j] = uint64(i*1000 + j)
			}
		}
		var seq []uint64
		for r := 0; r < int(reps%20)+2; r++ {
			seq = append(seq, streams[rng.Intn(ns)]...)
		}
		snap := Build(seq)
		got := snap.Sequence()
		if len(got) != len(seq) {
			return false
		}
		for i := range seq {
			if got[i] != seq[i] {
				return false
			}
		}
		return snap.CheckInvariants() == nil && reflect.DeepEqual(snap, refBuild(seq))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLargeSequencePerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := xrand.New(77)
	streams := make([][]uint64, 40)
	for i := range streams {
		streams[i] = make([]uint64, rng.Range(10, 120))
		for j := range streams[i] {
			streams[i][j] = uint64(i*4096 + j)
		}
	}
	g := New(0)
	total := 0
	for total < 300_000 {
		s := streams[rng.Intn(len(streams))]
		for _, v := range s {
			g.Append(v)
		}
		total += len(s)
	}
	snap := g.Snapshot()
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Sequence(); len(got) != total {
		t.Fatalf("round trip length %d != %d", len(got), total)
	}
}

func TestExpandPanicsOutOfRange(t *testing.T) {
	snap := Build([]uint64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("Expand(99) should panic")
		}
	}()
	snap.Expand(99)
}

func BenchmarkAppend(b *testing.B) {
	rng := xrand.New(3)
	streams := make([][]uint64, 20)
	for i := range streams {
		streams[i] = make([]uint64, 50)
		for j := range streams[i] {
			streams[i][j] = uint64(i*100 + j)
		}
	}
	g := New(0)
	b.ResetTimer()
	i := 0
	for i < b.N {
		s := streams[rng.Intn(len(streams))]
		for _, v := range s {
			g.Append(v)
			i++
			if i >= b.N {
				break
			}
		}
	}
}

// matchReference builds seq with Grammar and with the reference model
// and fails unless the two snapshots are identical.
func matchReference(t *testing.T, name string, seq []uint64) {
	t.Helper()
	got, want := Build(seq), refBuild(seq)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range min(got.NumRules(), want.NumRules()) {
		if !reflect.DeepEqual(got.Rules[i], want.Rules[i]) {
			t.Fatalf("%s: %d terminals: rule %d is %+v, reference %+v", name, len(seq), i, got.Rules[i], want.Rules[i])
		}
	}
	t.Fatalf("%s: %d terminals: grammar has %d rules, reference %d", name, len(seq), got.NumRules(), want.NumRules())
}

// fuzzSequence decodes one terminal per byte after the first, which
// picks an alphabet of 1 to 16 values; a set top bit moves the value to
// bit 63. Small alphabets make runs of one symbol (the triple case),
// rule reuse and rule expansion common, and their values collide with
// the small rule ids a grammar hands out.
func fuzzSequence(data []byte) []uint64 {
	if len(data) == 0 {
		return nil
	}
	alphabet := 1 + uint64(data[0]%16)
	seq := make([]uint64, len(data)-1)
	for i, b := range data[1:] {
		seq[i] = uint64(b&0x7f) % alphabet
		if b&0x80 != 0 {
			seq[i] |= 1 << 63
		}
	}
	return seq
}

// FuzzGrammarMatchesReference: Grammar and the pointer-linked reference
// model build identical snapshots from any sequence.
func FuzzGrammarMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("\x02abcdbcabcdbcaaaabbbb"))
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 2, 2, 2, 1, 0, 1, 0, 1, 2, 0, 1})
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 0x81, 0x82, 1, 2, 0x81, 0x82, 3, 4, 5})
	f.Add([]byte{4, 0x80, 0x80, 0x80, 0, 0, 0, 0x80, 0, 0x80, 0, 0x80, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "fuzz", fuzzSequence(data))
	})
}

// TestGrammarMatchesReferenceOnTraces compares the two implementations
// on the miss traces of the six small workloads, four cores each, with
// and without sequential misses, as Figs. 3, 5 and 6 build them.
func TestGrammarMatchesReferenceOnTraces(t *testing.T) {
	events := workload.ScaleSmall.AnalysisEvents()
	if testing.Short() {
		events /= 10
	}
	for _, spec := range workload.Suite() {
		gen := workload.Build(spec, workload.ScaleSmall, 4)
		for _, src := range gen.Sources() {
			recs := trace.ExtractMisses(src, events, trace.ExtractorConfig{})
			for _, rc := range [][]trace.MissRecord{recs, trace.DropSequential(recs)} {
				seq := make([]uint64, len(rc))
				for i, r := range rc {
					seq[i] = uint64(r.Block)
				}
				matchReference(t, spec.Name, seq)
			}
		}
	}
}

// BenchmarkGrammarBuild builds the grammar of one medium-scale OLTP-DB2
// core's miss trace, the per-core unit of Figs. 3, 5 and 6, with and
// without sequential misses (the engine's two grammar variants).
func BenchmarkGrammarBuild(b *testing.B) {
	spec, _ := workload.ByName("OLTP-DB2")
	gen := workload.Build(spec, workload.ScaleMedium, 4)
	recs := trace.ExtractMisses(gen.Sources()[0], workload.ScaleMedium.AnalysisEvents(), trace.ExtractorConfig{})
	for _, v := range []struct {
		name string
		recs []trace.MissRecord
	}{{"full", recs}, {"noseq", trace.DropSequential(recs)}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g := New(len(v.recs))
				for _, r := range v.recs {
					g.Append(uint64(r.Block))
				}
				g.Snapshot()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(v.recs)), "ns/miss")
		})
	}
}
