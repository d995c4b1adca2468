package prefetch

import (
	"testing"

	"tifs/internal/isa"
)

// fakeMem is a fixed-latency Memory for unit tests.
type fakeMem struct {
	latency    uint64
	prefetches []isa.Block
	metaReads  int
	metaWrites int
}

func (m *fakeMem) Prefetch(core int, b isa.Block, now uint64) uint64 {
	m.prefetches = append(m.prefetches, b)
	return now + m.latency
}

func (m *fakeMem) MetaRead(core int, token uint64, now uint64) uint64 {
	m.metaReads++
	return now + m.latency
}

func (m *fakeMem) MetaWrite(core int, token uint64, now uint64) {
	m.metaWrites++
}

// fakeL1 reports a fixed resident set.
type fakeL1 struct{ resident map[isa.Block]bool }

func (l *fakeL1) ContainsBlock(b isa.Block) bool { return l.resident[b] }

func seqWindow(pc isa.Addr, n int) []isa.BlockEvent {
	w := make([]isa.BlockEvent, n)
	for i := range w {
		w[i] = isa.BlockEvent{PC: pc, Instrs: isa.InstrsPerBlock, Kind: isa.CTFallthrough}
		pc = pc.Add(isa.InstrsPerBlock)
	}
	return w
}

func TestNonePrefetcher(t *testing.T) {
	var p None
	if _, ok := p.Probe(1, 0); ok {
		t.Error("None must never hit")
	}
	if p.Stats() != (Stats{}) {
		t.Error("None must have zero stats")
	}
}

// TestPerfectHitsSeenBlocks: the perfect streamer is the probabilistic
// model at coverage 1. An unseen block misses; a block fetched before is
// an instant, timely hit.
func TestPerfectHitsSeenBlocks(t *testing.T) {
	p := NewProbabilistic(1, "t")
	if _, ok := p.Probe(5, 10); ok {
		t.Error("unseen block must miss")
	}
	p.OnFetchBlock(5, FetchMiss, 10)
	ready, ok := p.Probe(5, 20)
	if !ok || ready != 20 {
		t.Errorf("Probe = %d,%v", ready, ok)
	}
	if p.Stats().HitsTimely != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestProbabilisticCoverageZeroAndOne(t *testing.T) {
	p0 := NewProbabilistic(0, "t")
	p1 := NewProbabilistic(1, "t")
	for i := 0; i < 100; i++ {
		b := isa.Block(i)
		p0.OnFetchBlock(b, FetchMiss, 0)
		p1.OnFetchBlock(b, FetchMiss, 0)
	}
	hits0, hits1 := 0, 0
	for i := 0; i < 100; i++ {
		if _, ok := p0.Probe(isa.Block(i), 0); ok {
			hits0++
		}
		if _, ok := p1.Probe(isa.Block(i), 0); ok {
			hits1++
		}
	}
	if hits0 != 0 {
		t.Errorf("coverage 0 hit %d times", hits0)
	}
	if hits1 != 100 {
		t.Errorf("coverage 1 hit %d/100", hits1)
	}
}

func TestProbabilisticCoverageMid(t *testing.T) {
	p := NewProbabilistic(0.5, "mid")
	for i := 0; i < 2000; i++ {
		p.OnFetchBlock(isa.Block(i), FetchMiss, 0)
	}
	hits := 0
	for i := 0; i < 2000; i++ {
		if _, ok := p.Probe(isa.Block(i), 0); ok {
			hits++
		}
	}
	if hits < 850 || hits > 1150 {
		t.Errorf("coverage 0.5 hit %d/2000", hits)
	}
}

func TestFDIPPrefetchesStraightLine(t *testing.T) {
	mem := &fakeMem{latency: 20}
	l1 := &fakeL1{resident: map[isa.Block]bool{}}
	f := NewFDIP(FDIPConfig{ExploreRate: 100}, 0, mem, l1)

	w := seqWindow(0x10000, 8)
	f.OnWindow(w, 100)
	// 96-instr budget = 6 events of 16 instrs each beyond window[0].
	if len(mem.prefetches) != 6 {
		t.Fatalf("issued %d prefetches, want 6 (96-instr budget)", len(mem.prefetches))
	}
	// First prefetched block is window[1]'s block.
	if mem.prefetches[0] != w[1].PC.Block() {
		t.Errorf("first prefetch %v, want %v", mem.prefetches[0], w[1].PC.Block())
	}
	// Probe hit transfers and reports ready.
	ready, ok := f.Probe(w[1].PC.Block(), 105)
	if !ok || ready != 120 {
		t.Errorf("Probe = %d,%v; want 120,true", ready, ok)
	}
	// Second probe of the same block misses (transferred).
	if _, ok := f.Probe(w[1].PC.Block(), 130); ok {
		t.Error("block should have been consumed")
	}
}

func TestFDIPStopsAtUnpredictableBranch(t *testing.T) {
	mem := &fakeMem{latency: 20}
	f := NewFDIP(FDIPConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})

	// window[0] ends in a conditional branch. Train the predictor to
	// expect not-taken, then present a taken branch: exploration must not
	// proceed past it.
	br := isa.BlockEvent{PC: 0x2000, Instrs: 4, Kind: isa.CTBranch, Taken: true, Target: 0x9000}
	for i := 0; i < 10; i++ {
		f.OnEvent(isa.BlockEvent{PC: 0x2000, Instrs: 4, Kind: isa.CTBranch, Taken: false}, 0)
	}
	w := []isa.BlockEvent{br, {PC: 0x9000, Instrs: 16, Kind: isa.CTFallthrough}, {PC: 0x9040, Instrs: 16, Kind: isa.CTFallthrough}}
	f.OnWindow(w, 0)
	// Only wrong-path blocks (the fallthrough at 0x2004) may be fetched;
	// the true target must not be.
	for _, b := range mem.prefetches {
		if b == isa.Addr(0x9000).Block() {
			t.Errorf("explored past a mispredicted branch: %v", mem.prefetches)
		}
	}

	// Now train it to predict taken; exploration proceeds once the
	// blocked window drains.
	for i := 0; i < 10; i++ {
		f.OnEvent(isa.BlockEvent{PC: 0x2000, Instrs: 4, Kind: isa.CTBranch, Taken: true}, 0)
	}
	mem.prefetches = nil
	f.OnWindow(w, 0) // consumes the blocked count
	f.OnWindow(w, 0)
	found := false
	for _, b := range mem.prefetches {
		if b == isa.Addr(0x9000).Block() {
			found = true
		}
	}
	if !found {
		t.Error("did not explore past a correctly predicted branch")
	}
}

func TestFDIPStopsAtTrap(t *testing.T) {
	mem := &fakeMem{latency: 20}
	f := NewFDIP(FDIPConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	w := []isa.BlockEvent{
		{PC: 0x3000, Instrs: 4, Kind: isa.CTTrap, Taken: true, Target: 0xf0000000},
		{PC: 0xf0000000, Instrs: 16, Kind: isa.CTFallthrough},
	}
	f.OnWindow(w, 0)
	if len(mem.prefetches) != 0 {
		t.Error("explored past a trap")
	}
}

func TestFDIPBranchBudget(t *testing.T) {
	mem := &fakeMem{latency: 20}
	f := NewFDIP(FDIPConfig{MaxInstrs: 10000, MaxBranches: 2, ExploreRate: 100}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	// Chain of perfectly-predictable not-taken branches (predictor inits
	// weakly-taken, so train first).
	var w []isa.BlockEvent
	pc := isa.Addr(0x4000)
	for i := 0; i < 6; i++ {
		ev := isa.BlockEvent{PC: pc, Instrs: 4, Kind: isa.CTBranch, Taken: false, Target: 0x100}
		for k := 0; k < 8; k++ {
			f.OnEvent(ev, 0)
		}
		w = append(w, ev)
		pc = pc.Add(4)
	}
	f.OnWindow(w, 0)
	// Budget of 2 branches: only window[1] and window[2] explored; both
	// are in block 0x4000>>6 == first block... events are 4 instrs apart,
	// so several share one cache block; count distinct blocks issued.
	if len(mem.prefetches) > 2 {
		t.Errorf("branch budget exceeded: %d prefetches", len(mem.prefetches))
	}
}

func TestFDIPSkipsL1Resident(t *testing.T) {
	mem := &fakeMem{latency: 20}
	w := seqWindow(0x50000, 4)
	l1 := &fakeL1{resident: map[isa.Block]bool{w[1].PC.Block(): true}}
	f := NewFDIP(FDIPConfig{}, 0, mem, l1)
	f.OnWindow(w, 0)
	for _, b := range mem.prefetches {
		if b == w[1].PC.Block() {
			t.Error("prefetched an L1-resident block")
		}
	}
}

func TestFDIPIndirectCallPrediction(t *testing.T) {
	mem := &fakeMem{latency: 20}
	f := NewFDIP(FDIPConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	call := isa.BlockEvent{PC: 0x6000, Instrs: 4, Kind: isa.CTCall, Taken: true, Target: 0x7000}
	w := []isa.BlockEvent{call, {PC: 0x7000, Instrs: 16, Kind: isa.CTFallthrough}}
	// Never seen: unpredictable (and no predicted target, so no
	// wrong-path fetches either).
	f.OnWindow(w, 0)
	if len(mem.prefetches) != 0 {
		t.Error("explored past a never-seen indirect call")
	}
	// After retiring once, the same target is predictable (the blocked
	// window must drain first).
	f.OnEvent(call, 0)
	f.OnWindow(w, 0)
	f.OnWindow(w, 0)
	if len(mem.prefetches) == 0 {
		t.Error("did not explore past a repeated call target")
	}
	// Target change: exploration must not reach the actual target; only
	// wrong-path blocks from the stale predicted target may be fetched.
	mem.prefetches = nil
	f2 := NewFDIP(FDIPConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	f2.OnEvent(isa.BlockEvent{PC: 0x6000, Instrs: 4, Kind: isa.CTCall, Taken: true, Target: 0x8000}, 0)
	f2.OnWindow(w, 0) // w expects target 0x7000, lastTarget is 0x8000
	for _, b := range mem.prefetches {
		if b == isa.Addr(0x7000).Block() {
			t.Error("explored past a changed call target")
		}
	}
}

func TestFDIPBufferEvictionDiscards(t *testing.T) {
	mem := &fakeMem{latency: 20}
	f := NewFDIP(FDIPConfig{BufferBlocks: 2, MaxInstrs: 10000, MaxBranches: 100, ExploreRate: 100}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	w := seqWindow(0x80000, 8)
	f.OnWindow(w, 0)
	if f.Stats().Discards == 0 {
		t.Error("small buffer should have discarded entries")
	}
}

func TestDiscontinuityLearnsAndPrefetches(t *testing.T) {
	mem := &fakeMem{latency: 20}
	d := NewDiscontinuity(DiscontinuityConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	from, to := isa.Block(0x100), isa.Block(0x900)

	// First traversal trains the table.
	d.OnFetchBlock(from, FetchMiss, 0)
	d.OnFetchBlock(to, FetchMiss, 10)
	if len(mem.prefetches) != 0 {
		t.Fatalf("prefetched before training: %v", mem.prefetches)
	}
	// Next fetch of from predicts the discontinuity.
	d.OnFetchBlock(from, FetchL1Hit, 20)
	if len(mem.prefetches) == 0 {
		t.Fatal("trained discontinuity not prefetched")
	}
	if mem.prefetches[0] != to {
		t.Errorf("prefetched %v, want %v", mem.prefetches[0], to)
	}
	if _, ok := d.Probe(to, 100); !ok {
		t.Error("discontinuity target not in buffer")
	}
}

func TestDiscontinuitySequentialNotTrained(t *testing.T) {
	mem := &fakeMem{latency: 20}
	d := NewDiscontinuity(DiscontinuityConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	d.OnFetchBlock(1, FetchMiss, 0)
	d.OnFetchBlock(2, FetchMiss, 0) // sequential: not a discontinuity
	d.OnFetchBlock(1, FetchL1Hit, 0)
	if len(mem.prefetches) != 0 {
		t.Error("sequential transition should not train the table")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Issued: 1, HitsTimely: 2, HitsLate: 3, Discards: 4, MetaReads: 5, MetaWrites: 6}
	b := a
	a.Add(b)
	if a.Issued != 2 || a.Hits() != 10 || a.MetaWrites != 12 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestFetchOutcomeString(t *testing.T) {
	for o, want := range map[FetchOutcome]string{
		FetchL1Hit: "l1-hit", FetchNextLineHit: "next-line-hit",
		FetchPrefetchHit: "prefetch-hit", FetchMiss: "miss",
		FetchOutcome(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
}
