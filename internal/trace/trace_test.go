package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"tifs/internal/cache"
	"tifs/internal/isa"
	"tifs/internal/workload"
)

// seqEvents builds a straight-line stream of single-block basic blocks
// starting at pc.
func seqEvents(pc isa.Addr, n int) []isa.BlockEvent {
	evs := make([]isa.BlockEvent, n)
	for i := range evs {
		evs[i] = isa.BlockEvent{PC: pc, Instrs: isa.InstrsPerBlock, Kind: isa.CTFallthrough}
		pc = pc.Add(isa.InstrsPerBlock)
	}
	evs[n-1].Kind = isa.CTReturn
	evs[n-1].Taken = true
	evs[n-1].Target = 0
	return evs
}

func TestExtractorNextLineHidesSequentialMisses(t *testing.T) {
	// A long sequential run: the first block misses; the next-line
	// prefetcher (depth 2) keeps all later blocks resident.
	evs := seqEvents(0x10000, 50)
	misses := ExtractMisses(isa.NewSliceSource(evs), uint64(len(evs)), ExtractorConfig{})
	if len(misses) != 1 {
		t.Fatalf("sequential run produced %d misses, want 1", len(misses))
	}
	if misses[0].Block != isa.Addr(0x10000).Block() {
		t.Errorf("miss block = %v", misses[0].Block)
	}
}

func TestExtractorDiscontinuityMisses(t *testing.T) {
	// Jumps between far-apart blocks: every target misses (cold cache).
	var evs []isa.BlockEvent
	for i := 0; i < 10; i++ {
		pc := isa.Addr(0x100000 * (i + 1))
		next := isa.Addr(0x100000 * (i + 2))
		evs = append(evs, isa.BlockEvent{PC: pc, Instrs: 4, Kind: isa.CTJump, Taken: true, Target: next})
	}
	misses := ExtractMisses(isa.NewSliceSource(evs), uint64(len(evs)), ExtractorConfig{})
	if len(misses) != 10 {
		t.Fatalf("got %d misses, want 10", len(misses))
	}
	for _, m := range misses {
		if m.Sequential {
			t.Errorf("far jump marked sequential: %+v", m)
		}
	}
}

func TestExtractorSecondPassHitsL1(t *testing.T) {
	// A small loop fits in L1: the second traversal misses nothing.
	evs := seqEvents(0x20000, 20)
	src := isa.NewSliceSource(append(append([]isa.BlockEvent{}, evs...), evs...))
	e := NewExtractor(ExtractorConfig{}, nil)
	e.Run(src, uint64(2*len(evs)))
	if e.Misses() != 1 {
		t.Errorf("two passes over cacheable code: %d misses, want 1", e.Misses())
	}
}

func TestExtractorBranchCounting(t *testing.T) {
	// Pattern: miss, then three non-inner-loop branches (not taken,
	// staying in cached blocks), then a far jump causing a miss.
	pc := isa.Addr(0x30000)
	far := isa.Addr(0x900000)
	evs := []isa.BlockEvent{
		{PC: pc, Instrs: 4, Kind: isa.CTBranch, Taken: false, Target: pc},
		{PC: pc.Add(4), Instrs: 4, Kind: isa.CTBranch, Taken: false, Target: pc},
		{PC: pc.Add(8), Instrs: 4, Kind: isa.CTBranch, Taken: false, Target: pc, InnerLoop: true},
		{PC: pc.Add(12), Instrs: 4, Kind: isa.CTJump, Taken: true, Target: far},
		{PC: far, Instrs: 4, Kind: isa.CTReturn, Taken: true, Target: pc},
	}
	misses := ExtractMisses(isa.NewSliceSource(evs), uint64(len(evs)), ExtractorConfig{})
	if len(misses) != 2 {
		t.Fatalf("got %d misses: %+v", len(misses), misses)
	}
	// The far miss saw 2 non-inner-loop branches since the first miss
	// (the InnerLoop one is excluded).
	if misses[1].Branches != 2 {
		t.Errorf("Branches = %d, want 2", misses[1].Branches)
	}
}

func TestExtractorSequentialFlag(t *testing.T) {
	// Force sequential misses by disabling next-line depth via a custom
	// config (depth cannot be 0 = default, so use a tiny L1 and jumps
	// landing exactly one block apart but beyond next-line reach).
	// Simpler: depth default 2; jump 3 blocks ahead is not sequential.
	// Construct consecutive far-region misses one block apart via jumps.
	base := isa.Addr(0x40000)
	evs := []isa.BlockEvent{
		{PC: base, Instrs: 4, Kind: isa.CTJump, Taken: true, Target: 0x800000},
		{PC: 0x800000, Instrs: 4, Kind: isa.CTJump, Taken: true, Target: 0x900000},
		// 0x900000 block = 0x900000>>6; previous miss 0x800000>>6; not adjacent.
		{PC: 0x900000, Instrs: 4, Kind: isa.CTReturn, Taken: true, Target: base},
	}
	misses := ExtractMisses(isa.NewSliceSource(evs), uint64(len(evs)), ExtractorConfig{})
	for i, m := range misses {
		if i > 0 && m.Block == misses[i-1].Block+1 && !m.Sequential {
			t.Errorf("adjacent miss not flagged sequential")
		}
	}
}

func TestExtractorMultiBlockEvent(t *testing.T) {
	// One basic block spanning 4 cache blocks in a cold cache: the first
	// block misses, next-line covers the rest.
	evs := []isa.BlockEvent{{PC: 0x50000, Instrs: 64, Kind: isa.CTReturn, Taken: true, Target: 0}}
	e := NewExtractor(ExtractorConfig{}, nil)
	e.Feed(&evs[0])
	if e.Accesses() != 4 {
		t.Errorf("Accesses = %d, want 4", e.Accesses())
	}
	if e.Misses() != 1 {
		t.Errorf("Misses = %d, want 1 (next-line covers the rest)", e.Misses())
	}
}

func TestExtractorOnRealWorkload(t *testing.T) {
	spec, _ := workload.ByName("OLTP-DB2")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	var count int
	e := NewExtractor(ExtractorConfig{}, func(m MissRecord) { count++ })
	consumed := e.Run(g.Sources()[0], 120_000)
	if consumed != 120_000 {
		t.Fatalf("consumed %d events", consumed)
	}
	if count == 0 {
		t.Fatal("workload produced no misses")
	}
	mpke := e.MPKE()
	// OLTP must miss substantially (working set >> L1) but not on every
	// event (loops and straight-line runs hit).
	if mpke < 2 || mpke > 400 {
		t.Errorf("OLTP MPKE = %f, outside sane range", mpke)
	}
}

// TestExtractMissesExactLength checks that a returned trace carries no
// spare capacity: the engine memoizes these slices for a whole pass, and
// the collection buffer is sized for streams far denser than this one.
func TestExtractMissesExactLength(t *testing.T) {
	spec, _ := workload.ByName("OLTP-DB2")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	misses := ExtractMisses(g.Sources()[0], 120_000, ExtractorConfig{})
	if len(misses) == 0 {
		t.Fatal("workload produced no misses")
	}
	if cap(misses) != len(misses) {
		t.Errorf("cap = %d, len = %d; want cap == len", cap(misses), len(misses))
	}
}

func TestDSSMissesLessThanOLTP(t *testing.T) {
	rate := func(name string) float64 {
		spec, _ := workload.ByName(name)
		g := workload.Build(spec, workload.ScaleSmall, 1)
		e := NewExtractor(ExtractorConfig{}, nil)
		e.Run(g.Sources()[0], 120_000)
		return e.MPKE()
	}
	oltp := rate("OLTP-Oracle")
	dss := rate("DSS-Qry17")
	if dss >= oltp {
		t.Errorf("DSS MPKE (%f) should be below OLTP (%f)", dss, oltp)
	}
}

func TestDropSequentialAndBlocks(t *testing.T) {
	recs := []MissRecord{
		{Block: 1}, {Block: 2, Sequential: true}, {Block: 9},
	}
	kept := DropSequential(recs)
	if len(kept) != 2 || kept[0].Block != 1 || kept[1].Block != 9 {
		t.Errorf("DropSequential = %+v", kept)
	}
	blocks := Blocks(recs)
	if len(blocks) != 3 || blocks[2] != 9 {
		t.Errorf("Blocks = %v", blocks)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("Web-Zeus")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	events := isa.Collect(g.Sources()[0], 20_000)

	var buf bytes.Buffer
	w, err := NewEventWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(events)) {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewEventReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("stream ended at %d: %v", i, r.Err())
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("stream should be exhausted")
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestMissCodecRoundTrip(t *testing.T) {
	f := func(blocks []uint32, branches []uint8) bool {
		if len(blocks) == 0 {
			return true
		}
		recs := make([]MissRecord, len(blocks))
		var seq uint64
		for i, b := range blocks {
			br := 0
			if i < len(branches) {
				br = int(branches[i])
			}
			seq += uint64(br) + 1
			recs[i] = MissRecord{
				Block:      isa.Block(b),
				Seq:        seq,
				Branches:   br,
				Sequential: i > 0 && isa.Block(b) == recs[i-1].Block+1,
			}
		}
		var buf bytes.Buffer
		w, err := NewMissWriter(&buf)
		if err != nil {
			return false
		}
		for _, m := range recs {
			if w.Write(m) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := ReadAllMisses(buf.Bytes())
		if err != nil || len(got) != len(recs) || cap(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewEventReader(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewMissReader(bytes.NewReader([]byte{})); err == nil {
		t.Error("empty stream accepted")
	}
	// Events header on a miss reader.
	var buf bytes.Buffer
	w, _ := NewEventWriter(&buf)
	w.Flush()
	if _, err := NewMissReader(&buf); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewEventWriter(&buf)
	w.Write(isa.BlockEvent{PC: 0x1000, Instrs: 8, Kind: isa.CTJump, Taken: true, Target: 0x2000})
	w.Write(isa.BlockEvent{PC: 0x2000, Instrs: 8, Kind: isa.CTJump, Taken: true, Target: 0x3000})
	w.Flush()
	full := buf.Bytes()
	// Cut mid-record (drop the last 2 bytes).
	r, err := NewEventReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
	if n != 1 {
		t.Errorf("decoded %d events before truncation, want 1", n)
	}
}

func TestEventCodecCompact(t *testing.T) {
	spec, _ := workload.ByName("DSS-Qry2")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	events := isa.Collect(g.Sources()[0], 50_000)
	var buf bytes.Buffer
	w, _ := NewEventWriter(&buf)
	for _, ev := range events {
		w.Write(ev)
	}
	w.Flush()
	perEvent := float64(buf.Len()) / float64(len(events))
	// A naive fixed encoding is 8+8+8+1+... ~26 bytes; delta coding should
	// be far smaller.
	if perEvent > 12 {
		t.Errorf("%.1f bytes/event, expected compact encoding", perEvent)
	}
}

func TestCollect(t *testing.T) {
	evs := seqEvents(0x1000, 10)
	got := isa.Collect(isa.NewSliceSource(evs), 3)
	if len(got) != 3 {
		t.Errorf("Collect(3) = %d events", len(got))
	}
	// A source shorter than n ends the collection.
	got = isa.Collect(isa.NewSliceSource(evs), 100)
	if len(got) != 10 {
		t.Errorf("Collect(100) of 10 events = %d events", len(got))
	}
	// Collect with n=0 drains fully.
	got = isa.Collect(isa.NewSliceSource(evs), 0)
	if len(got) != 10 {
		t.Errorf("Collect(0) = %d events", len(got))
	}
}

// refFeed is Extractor.Feed as it was before the memo: every block is
// an Access, and every block probes its NextLineDepth successors with
// Contains and fills the absent ones.
func refFeed(e *Extractor, ev isa.BlockEvent) {
	for b := ev.PC.Block(); b <= ev.LastPC().Block(); b++ {
		e.accesses++
		if !e.l1.Access(b) {
			e.misses++
			rec := MissRecord{
				Block:      b,
				Seq:        e.seq,
				Branches:   e.branches,
				Sequential: e.havePrev && b == e.prevMiss+1,
			}
			e.prevMiss = b
			e.havePrev = true
			e.branches = 0
			e.l1.Fill(b)
			if e.onMiss != nil {
				e.onMiss(rec)
			}
		}
		for d := 1; d <= e.cfg.NextLineDepth; d++ {
			nb := b + isa.Block(d)
			if !e.l1.Contains(nb) {
				e.l1.Fill(nb)
			}
		}
	}
	if ev.Kind.IsConditional() && !ev.InnerLoop {
		e.branches++
	}
	e.seq++
}

// TestFeedMatchesReference feeds every core of every small workload
// through Feed and refFeed and requires the same miss records and
// counts: with the paper's L1, where the memo is on, and with a 2-set
// L1, where it is off.
func TestFeedMatchesReference(t *testing.T) {
	events := 30_000
	if testing.Short() {
		events = 5_000
	}
	for _, cfg := range []ExtractorConfig{
		{},
		{L1: cache.Config{SizeBytes: 4 * isa.BlockBytes, Assoc: 2}},
	} {
		for _, spec := range workload.Suite() {
			gen := workload.Build(spec, workload.ScaleSmall, 4)
			for core, src := range gen.Sources() {
				var got, want []MissRecord
				e := NewExtractor(cfg, func(m MissRecord) { got = append(got, m) })
				ref := NewExtractor(cfg, func(m MissRecord) { want = append(want, m) })
				if e.memo != (cfg.L1.SizeBytes == 0) {
					t.Fatalf("%+v: memo = %v", cfg, e.memo)
				}
				for i := 0; i < events; i++ {
					ev, ok := src.Next()
					if !ok {
						break
					}
					e.Feed(&ev)
					refFeed(ref, ev)
				}
				if !reflect.DeepEqual(got, want) || e.Accesses() != ref.Accesses() || e.Misses() != ref.Misses() {
					t.Errorf("%s core %d, L1 %+v: %d misses of %d accesses, reference %d of %d (records equal: %v)",
						spec.Name, core, cfg.L1, e.Misses(), e.Accesses(), ref.Misses(), ref.Accesses(), reflect.DeepEqual(got, want))
				}
			}
		}
	}
}
