package cpu

import (
	"testing"

	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/uncore"
)

// seqSource yields n sequential block-aligned events.
func seqSource(pc isa.Addr, n int) isa.EventSource {
	evs := make([]isa.BlockEvent, n)
	for i := range evs {
		kind := isa.CTFallthrough
		if i == n-1 {
			kind = isa.CTReturn
		}
		evs[i] = isa.BlockEvent{PC: pc, Instrs: isa.InstrsPerBlock, Kind: kind, Taken: i == n-1, Target: pc}
		pc = pc.Add(isa.InstrsPerBlock)
	}
	return isa.NewSliceSource(evs)
}

func newCore(t testing.TB, src isa.EventSource, pf prefetch.Prefetcher) (*Core, *uncore.L2) {
	t.Helper()
	un := uncore.New(uncore.Config{})
	c := New(0, Config{BackendCPI: 0.4}, src, pf, un)
	return c, un
}

func TestCoreRunsToCompletion(t *testing.T) {
	c, _ := newCore(t, seqSource(0x1000, 100), nil)
	steps := 0
	for c.Step() {
		steps++
	}
	if steps != 100 {
		t.Errorf("steps = %d, want 100", steps)
	}
	st := c.Stats()
	if st.Events != 100 || st.Instrs != 100*16 {
		t.Errorf("stats = %+v", st)
	}
	if c.Step() {
		t.Error("Step after the source ran dry should return false")
	}
}

func TestCPIFloor(t *testing.T) {
	// With width 4 and BackendCPI 0.4, execution alone costs
	// 16*(0.25+0.4) = 10.4 cycles/event; fetch stalls add more.
	c, _ := newCore(t, seqSource(0x1000, 200), nil)
	for c.Step() {
	}
	st := c.Stats()
	minCycles := uint64(float64(st.Instrs) * 0.65)
	if st.Cycles < minCycles {
		t.Errorf("cycles %d below execution floor %d", st.Cycles, minCycles)
	}
}

func TestFetchStallsRecorded(t *testing.T) {
	c, _ := newCore(t, seqSource(0x1000, 50), nil)
	for c.Step() {
	}
	st := c.Stats()
	// Cold sequential run: the first block is a demand miss; later blocks
	// are next-line covered (timely or late).
	if st.Misses == 0 {
		t.Error("no misses on a cold run")
	}
	if st.FetchStallCycles == 0 {
		t.Error("no fetch stalls recorded")
	}
	if st.FetchStallShare() <= 0 || st.FetchStallShare() >= 1 {
		t.Errorf("stall share = %f", st.FetchStallShare())
	}
}

func TestSecondPassHitsL1(t *testing.T) {
	// Two passes over a small loop: second pass must be all L1 hits.
	var evs []isa.BlockEvent
	collect := func() {
		src := seqSource(0x2000, 20)
		for {
			ev, ok := src.Next()
			if !ok {
				break
			}
			evs = append(evs, ev)
		}
	}
	collect()
	collect()
	c, _ := newCore(t, isa.NewSliceSource(evs), nil)
	for c.Step() {
	}
	st := c.Stats()
	if st.L1Hits < 20 {
		t.Errorf("L1 hits = %d; second pass should hit", st.L1Hits)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	// Alternating branch outcomes on one PC: bimodal and gshare both need
	// warmup; mispredicts must be counted and charged.
	var evs []isa.BlockEvent
	taken := false
	for i := 0; i < 200; i++ {
		target := isa.Addr(0x3000)
		ev := isa.BlockEvent{PC: 0x3000, Instrs: 4, Kind: isa.CTBranch, Taken: taken, Target: target}
		evs = append(evs, ev)
		taken = !taken
	}
	// Keep the stream consistent: alternate between fallthrough (0x3010)
	// and target (0x3000)... simplest: all events at the same PC with
	// self-target so NextPC is either 0x3000 or 0x3010; the cpu model does
	// not check inter-event consistency, only per-event costs.
	c, _ := newCore(t, isa.NewSliceSource(evs), nil)
	for c.Step() {
	}
	st := c.Stats()
	if st.Branches != 200 {
		t.Errorf("branches = %d", st.Branches)
	}
	if st.BranchMispredicts == 0 {
		t.Error("alternating branch never mispredicted during warmup")
	}
}

func TestSerializingPenalty(t *testing.T) {
	evs := []isa.BlockEvent{
		{PC: 0x4000, Instrs: 8, Kind: isa.CTFallthrough, Serializing: true},
		{PC: 0x4020, Instrs: 8, Kind: isa.CTReturn, Taken: true, Target: 0x4000},
	}
	c, _ := newCore(t, isa.NewSliceSource(evs), nil)
	for c.Step() {
	}
	if c.Stats().Serializations != 1 {
		t.Errorf("serializations = %d", c.Stats().Serializations)
	}
}

// countingPF records the protocol calls it receives.
type countingPF struct {
	prefetch.None
	windows, fetches, events, probes int
}

func (p *countingPF) OnWindow([]isa.BlockEvent, uint64)                     { p.windows++ }
func (p *countingPF) OnFetchBlock(isa.Block, prefetch.FetchOutcome, uint64) { p.fetches++ }
func (p *countingPF) OnEvent(isa.BlockEvent, uint64)                        { p.events++ }
func (p *countingPF) Probe(isa.Block, uint64) (uint64, bool) {
	p.probes++
	return 0, false
}

func TestPrefetcherProtocol(t *testing.T) {
	pf := &countingPF{}
	c, _ := newCore(t, seqSource(0x5000, 30), pf)
	for c.Step() {
	}
	if pf.windows != 30 || pf.events != 30 {
		t.Errorf("windows=%d events=%d, want 30 each", pf.windows, pf.events)
	}
	if pf.fetches != 30 {
		t.Errorf("fetches=%d, want 30 (one block per event)", pf.fetches)
	}
	// Probes only on L1/next-line misses: at least the cold first block.
	if pf.probes == 0 {
		t.Error("prefetcher never probed")
	}
}

func TestSetPrefetcherNilSafe(t *testing.T) {
	c, _ := newCore(t, seqSource(0x6000, 5), nil)
	c.SetPrefetcher(nil)
	for c.Step() {
	}
	if c.Prefetcher() == nil {
		t.Error("nil prefetcher not replaced with None")
	}
}

func TestWindowExposedToPrefetcher(t *testing.T) {
	var seen int
	pf := &windowPeek{onWindow: func(w []isa.BlockEvent) {
		if len(w) > seen {
			seen = len(w)
		}
	}}
	c, _ := newCore(t, seqSource(0x7000, 100), pf)
	for c.Step() {
	}
	if seen != 48 {
		t.Errorf("max window seen = %d, want fetch-target-queue depth 48", seen)
	}
}

// nextOnlySource hides a SliceSource's NextBatch, so the core refills
// its fetch-target queue one Next call at a time.
type nextOnlySource struct{ src *isa.SliceSource }

func (s nextOnlySource) Next() (isa.BlockEvent, bool) { return s.src.Next() }

// windowRecorder keeps a copy of every window the core exposes.
type windowRecorder struct {
	prefetch.None
	windows [][]isa.BlockEvent
}

func (p *windowRecorder) OnWindow(w []isa.BlockEvent, now uint64) {
	p.windows = append(p.windows, append([]isa.BlockEvent(nil), w...))
}

// TestFetchQueueWindowSources feeds the same events through a batch
// source and through a Next-only one. At every step both must expose
// exactly the next WindowEvents events (fewer only as the stream or the
// event budget runs out), which is the window a per-event refill shows.
func TestFetchQueueWindowSources(t *testing.T) {
	var evs []isa.BlockEvent
	for i := 0; i < 300; i++ {
		pc := isa.Addr(0x8000 + 0x40*(i*37%91))
		evs = append(evs, isa.BlockEvent{PC: pc, Instrs: 1 + i%20, Kind: isa.CTBranch, Taken: i%3 == 0, Target: pc, Serializing: i%41 == 0})
	}
	for _, tc := range []struct {
		window int
		budget uint64
	}{{0, 0}, {48, 250}, {5, 0}, {7, 101}} {
		run := func(src isa.EventSource) (*windowRecorder, Stats) {
			pf := &windowRecorder{}
			c := New(0, Config{BackendCPI: 0.4, WindowEvents: tc.window, EventBudget: tc.budget}, src, pf, uncore.New(uncore.Config{}))
			for c.Step() {
			}
			return pf, c.Stats()
		}
		batch, batchStats := run(isa.NewSliceSource(evs))
		next, nextStats := run(nextOnlySource{isa.NewSliceSource(evs)})
		depth := tc.window
		if depth == 0 {
			depth = 48
		}
		total := len(evs)
		if tc.budget > 0 {
			total = int(tc.budget)
		}
		if len(batch.windows) != total || len(next.windows) != total {
			t.Fatalf("window %d budget %d: %d and %d windows, want %d",
				tc.window, tc.budget, len(batch.windows), len(next.windows), total)
		}
		for k := 0; k < total; k++ {
			want := evs[k:min(k+depth, total)]
			for name, got := range map[string][]isa.BlockEvent{"batch": batch.windows[k], "next-only": next.windows[k]} {
				if len(got) != len(want) {
					t.Fatalf("window %d budget %d step %d: %s source shows %d events, want %d",
						tc.window, tc.budget, k, name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("window %d budget %d step %d: %s source event %d = %+v, want %+v",
							tc.window, tc.budget, k, name, i, got[i], want[i])
					}
				}
			}
		}
		if batchStats != nextStats {
			t.Errorf("window %d budget %d: stats differ:\nbatch     %+v\nnext-only %+v", tc.window, tc.budget, batchStats, nextStats)
		}
	}
}

type windowPeek struct {
	prefetch.None
	onWindow func([]isa.BlockEvent)
}

func (p *windowPeek) OnWindow(w []isa.BlockEvent, now uint64) { p.onWindow(w) }

func TestStatsIPC(t *testing.T) {
	s := Stats{Cycles: 100, Instrs: 250}
	if s.IPC() != 2.5 {
		t.Errorf("IPC = %f", s.IPC())
	}
	if (Stats{}).IPC() != 0 {
		t.Error("zero stats IPC should be 0")
	}
}
