package core

import (
	"testing"

	"tifs/internal/isa"
	"tifs/internal/prefetch"
)

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

// feedMisses drives a sequence of demand misses through the engine the
// way the fetch unit would: probe, then OnFetchBlock with the outcome.
// It returns the number of SVB hits.
func feedMisses(e *Engine, blocks []isa.Block, start uint64) (hits int) {
	now := start
	for _, b := range blocks {
		if _, ok := e.Probe(b, now); ok {
			hits++
			e.OnFetchBlock(b, prefetch.FetchPrefetchHit, now)
		} else {
			e.OnFetchBlock(b, prefetch.FetchMiss, now)
		}
		now += 50 // generous spacing: prefetches complete between misses
	}
	return hits
}

func stream100(base int, n int) []isa.Block {
	out := make([]isa.Block, n)
	for i := range out {
		out[i] = isa.Block(base + i*3) // non-sequential blocks
	}
	return out
}

func TestConfigNames(t *testing.T) {
	if UnboundedConfig().Name() != "TIFS-unbounded" {
		t.Error("unbounded name")
	}
	if DedicatedConfig().Name() != "TIFS-dedicated" {
		t.Error("dedicated name")
	}
	if VirtualizedConfig().Name() != "TIFS-virtualized" {
		t.Error("virtualized name")
	}
	if DedicatedConfig().IMLEntries != 8192 {
		t.Error("dedicated should have 8K entries per core")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := Config{IndexDropProb: 2}
	if bad.Validate() == nil {
		t.Error("IndexDropProb 2 accepted")
	}
	bad = Config{IMLEntries: -1}
	if bad.Validate() == nil {
		t.Error("negative entries accepted")
	}
}

func TestStreamReplayCoversRepeat(t *testing.T) {
	mem := &fakeMem{latency: 20}
	tifs := New(UnboundedConfig(), 1, mem)
	e := tifs.Core(0)

	s := stream100(1000, 50)
	if got := feedMisses(e, s, 0); got != 0 {
		t.Fatalf("first traversal hit %d times", got)
	}
	// Second traversal: head misses (triggers lookup), and with
	// end-of-stream pausing on never-confirmed entries the stream
	// advances one block per demand; still, every non-head block should
	// be an SVB hit.
	hits := feedMisses(e, s, 100_000)
	if hits < 45 {
		t.Fatalf("second traversal: %d/50 SVB hits", hits)
	}
	// Third traversal: hit bits are now set; rate matching runs ahead.
	hits = feedMisses(e, s, 200_000)
	if hits < 45 {
		t.Fatalf("third traversal: %d/50 SVB hits", hits)
	}
	st := tifs.Stats()
	if st.Hits() == 0 || st.Issued == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEndOfStreamLimitsOverfetch(t *testing.T) {
	// Train a short stream followed by unrelated misses; replay of the
	// short stream must not blast past its end.
	mem := &fakeMem{latency: 20}
	tifs := New(UnboundedConfig(), 1, mem)
	e := tifs.Core(0)

	short := stream100(100, 6)
	other := stream100(9000, 40)
	feedMisses(e, short, 0)
	feedMisses(e, other, 10_000)

	// Replay the short stream twice so hit bits are set on its interior.
	feedMisses(e, short, 100_000)
	issuedBefore := tifs.Stats().Issued
	feedMisses(e, short, 200_000)
	issuedDuring := tifs.Stats().Issued - issuedBefore

	// With end-of-stream detection the replay issues roughly the stream
	// length plus the lookahead window, not the whole following log.
	if issuedDuring > uint64(len(short)+8) {
		t.Errorf("issued %d prefetches replaying a %d-block stream", issuedDuring, len(short))
	}
}

func TestEndOfStreamDisabledOverfetches(t *testing.T) {
	mem := &fakeMem{latency: 20}
	cfg := UnboundedConfig()
	cfg.DisableEndOfStream = true
	tifs := New(cfg, 1, mem)
	e := tifs.Core(0)

	short := stream100(100, 6)
	other := stream100(9000, 40)
	feedMisses(e, short, 0)
	feedMisses(e, other, 10_000)

	issuedBefore := tifs.Stats().Issued
	feedMisses(e, short, 100_000)
	issuedDuring := tifs.Stats().Issued - issuedBefore
	// Without the pause heuristic the stream runs into the following log
	// (rate matching keeps 4 in flight, advancing on each hit).
	if issuedDuring <= uint64(len(short)) {
		t.Errorf("expected overfetch without end-of-stream detection, issued %d", issuedDuring)
	}
	if tifs.TIFSStats().Pauses != 0 {
		t.Error("pauses recorded with end-of-stream disabled")
	}
}

func TestBoundedIMLWrapsAndStreamsDie(t *testing.T) {
	mem := &fakeMem{latency: 20}
	cfg := Config{IMLEntries: 32}
	tifs := New(cfg, 1, mem)
	e := tifs.Core(0)

	long := stream100(5000, 100) // much longer than the IML
	feedMisses(e, long, 0)
	// The early entries are dead; replay of the start finds no stream.
	hits := feedMisses(e, long[:20], 100_000)
	if hits != 0 {
		t.Errorf("replayed %d blocks whose log entries were overwritten", hits)
	}
	// Recurrence within the live window still replays. (Replays append to
	// the log too, so the window slides while following; only the recent
	// tail survives.)
	hits = feedMisses(e, long[90:], 200_000)
	if hits < 5 {
		t.Errorf("tail replay hit only %d/10", hits)
	}
}

func TestCrossCoreStreamFollowing(t *testing.T) {
	mem := &fakeMem{latency: 20}
	tifs := New(UnboundedConfig(), 2, mem)
	s := stream100(777, 30)

	// Core 0 logs the stream; core 1 then encounters it and follows core
	// 0's IML through the shared index (Section 5.1).
	feedMisses(tifs.Core(0), s, 0)
	hits := feedMisses(tifs.Core(1), s, 100_000)
	if hits < 25 {
		t.Errorf("core 1 hit only %d/30 via cross-core stream", hits)
	}
}

func TestVirtualizedIMLTraffic(t *testing.T) {
	mem := &fakeMem{latency: 20}
	tifs := New(VirtualizedConfig(), 1, mem)
	e := tifs.Core(0)

	s := stream100(300, EntriesPerIMLBlock*4)
	feedMisses(e, s, 0)
	if mem.metaWrites == 0 {
		t.Error("virtualized IML produced no metadata writes")
	}
	// 48 appends = 4 full IML blocks.
	if got := tifs.Stats().MetaWrites; got != 4 {
		t.Errorf("MetaWrites = %d, want 4", got)
	}
	feedMisses(e, s, 100_000)
	if tifs.Stats().MetaReads == 0 {
		t.Error("stream replay should read IML blocks from L2")
	}

	// Dedicated storage must produce no metadata traffic at all.
	mem2 := &fakeMem{latency: 20}
	tifs2 := New(DedicatedConfig(), 1, mem2)
	feedMisses(tifs2.Core(0), s, 0)
	feedMisses(tifs2.Core(0), s, 100_000)
	if mem2.metaReads != 0 || mem2.metaWrites != 0 {
		t.Error("dedicated IML issued metadata traffic")
	}
}

func TestIndexDropInjection(t *testing.T) {
	mem := &fakeMem{latency: 20}
	cfg := UnboundedConfig()
	cfg.IndexDropProb = 1.0 // drop every update
	tifs := New(cfg, 1, mem)
	e := tifs.Core(0)
	s := stream100(42, 20)
	feedMisses(e, s, 0)
	hits := feedMisses(e, s, 100_000)
	if hits != 0 {
		t.Errorf("with all index updates dropped, replay hit %d times", hits)
	}
	if tifs.TIFSStats().IndexDrops == 0 {
		t.Error("drops not counted")
	}
}

func TestDiscardAccounting(t *testing.T) {
	mem := &fakeMem{latency: 20}
	cfg := UnboundedConfig()
	cfg.SVBBlocks = 4
	cfg.DisableEndOfStream = true // stream runs ahead freely
	tifs := New(cfg, 1, mem)
	e := tifs.Core(0)

	s := stream100(100, 40)
	feedMisses(e, s, 0)
	// Replay only the head: the stream pushes blocks that are never
	// consumed; the tiny SVB must evict them as discards.
	now := uint64(100_000)
	e.Probe(s[0], now)
	e.OnFetchBlock(s[0], prefetch.FetchMiss, now)
	for i := 1; i < 6; i++ {
		now += 50
		if _, ok := e.Probe(s[i], now); ok {
			e.OnFetchBlock(s[i], prefetch.FetchPrefetchHit, now)
		} else {
			e.OnFetchBlock(s[i], prefetch.FetchMiss, now)
		}
	}
	// Now abandon the stream and stream a fresh region twice: the second
	// traversal's stream insertions must evict the stale entries.
	fresh := stream100(50_000, 30)
	feedMisses(e, fresh, 200_000)
	feedMisses(e, fresh, 300_000)
	if tifs.Stats().Discards == 0 {
		t.Error("abandoned stream produced no discards")
	}
}

func TestLateHitReportsFutureReady(t *testing.T) {
	mem := &fakeMem{latency: 1000} // slow memory: hits will be in flight
	tifs := New(UnboundedConfig(), 1, mem)
	e := tifs.Core(0)
	s := stream100(100, 10)
	feedMisses(e, s, 0)

	// Replay quickly (no spacing): the lookahead prefetches are still in
	// flight when demanded.
	now := uint64(100_000)
	late := 0
	for _, b := range s {
		if ready, ok := e.Probe(b, now); ok {
			if ready > now {
				late++
			}
			e.OnFetchBlock(b, prefetch.FetchPrefetchHit, now)
		} else {
			e.OnFetchBlock(b, prefetch.FetchMiss, now)
		}
		now += 5
	}
	if late == 0 {
		t.Error("expected late (in-flight) hits with 1000-cycle memory")
	}
	if tifs.Stats().HitsLate == 0 {
		t.Error("late hits not counted")
	}
}

func TestPanicsOnBadConstruction(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mem := &fakeMem{}
	mustPanic("zero cores", func() { New(UnboundedConfig(), 0, mem) })
	mustPanic("bad config", func() { New(Config{IndexDropProb: -1}, 1, mem) })
}

func TestIMLRing(t *testing.T) {
	l := iml{capacity: 4}
	for i := 0; i < 10; i++ {
		l.append(logEntry{block: isa.Block(i)})
	}
	if l.alive(5) {
		t.Error("entry 5 should be dead (window is 6..9)")
	}
	for i := 6; i < 10; i++ {
		if !l.alive(uint64(i)) {
			t.Errorf("entry %d should be alive", i)
		}
		if l.at(uint64(i)).block != isa.Block(i) {
			t.Errorf("at(%d) = %v", i, l.at(uint64(i)).block)
		}
	}
	if l.alive(10) {
		t.Error("future entry alive")
	}

	unbounded := iml{}
	for i := 0; i < 100; i++ {
		unbounded.append(logEntry{block: isa.Block(i)})
	}
	if !unbounded.alive(0) || unbounded.at(0).block != 0 {
		t.Error("unbounded log lost entry 0")
	}
}
