package prefetch

import (
	"slices"
	"testing"

	"tifs/internal/isa"
)

// newTestBuffer returns an empty buffer of the given capacity over a
// 20-cycle memory and an L1 holding the given blocks.
func newTestBuffer(capacity int, resident ...isa.Block) (*buffer, *fakeMem) {
	mem := &fakeMem{latency: 20}
	l1 := &fakeL1{resident: map[isa.Block]bool{}}
	for _, b := range resident {
		l1.resident[b] = true
	}
	p := &buffer{mem: mem, l1: l1}
	p.reset(capacity)
	return p, mem
}

// TestBufferEvictsLeastRecentlyUsed fills a two-entry buffer past its
// capacity: each fill evicts the entry prefetched longest ago and counts one
// discard.
func TestBufferEvictsLeastRecentlyUsed(t *testing.T) {
	p, mem := newTestBuffer(2)
	for i, b := range []isa.Block{1, 2, 3, 4, 5} {
		p.prefetchBlock(b, uint64(10*i))
	}
	if !slices.Equal(mem.prefetches, []isa.Block{1, 2, 3, 4, 5}) {
		t.Errorf("prefetched %v, want every block once", mem.prefetches)
	}
	if st := p.Stats(); st.Issued != 5 || st.Discards != 3 {
		t.Errorf("stats %+v, want 5 sent and 3 discards (one per eviction)", st)
	}
	for _, b := range []isa.Block{1, 2, 3} {
		if _, ok := p.Probe(b, 100); ok {
			t.Errorf("evicted block %d still hits", b)
		}
	}
	for _, b := range []isa.Block{4, 5} {
		if _, ok := p.Probe(b, 100); !ok {
			t.Errorf("block %d, among the two most recent, was evicted", b)
		}
	}
}

// TestBufferSkipsHeldBlocks: a block in the L1 or already in the buffer
// is not prefetched again, and the held entry is not displaced.
func TestBufferSkipsHeldBlocks(t *testing.T) {
	p, mem := newTestBuffer(2, 9)
	p.prefetchBlock(9, 0) // in the L1
	p.prefetchBlock(1, 0)
	p.prefetchBlock(1, 5) // already buffered
	p.prefetchBlock(2, 10)
	if !slices.Equal(mem.prefetches, []isa.Block{1, 2}) {
		t.Errorf("prefetched %v, want [1 2]", mem.prefetches)
	}
	if st := p.Stats(); st.Issued != 2 || st.Discards != 0 {
		t.Errorf("stats %+v, want 2 sent and no discards", st)
	}
	if ready, ok := p.Probe(1, 30); !ok || ready != 20 {
		t.Errorf("Probe(1) = %d,%v; want the first prefetch's 20,true", ready, ok)
	}
}

// TestBufferProbeCountsTimelyAndLate: a hit removes the entry and counts
// as timely once the block has arrived, late while it is in flight.
func TestBufferProbeCountsTimelyAndLate(t *testing.T) {
	p, _ := newTestBuffer(4)
	p.prefetchBlock(1, 0)
	p.prefetchBlock(2, 0)
	if ready, ok := p.Probe(1, 5); !ok || ready != 20 {
		t.Fatalf("Probe(1) = %d,%v; want 20,true", ready, ok)
	}
	if ready, ok := p.Probe(2, 20); !ok || ready != 20 {
		t.Fatalf("Probe(2) = %d,%v; want 20,true", ready, ok)
	}
	if st := p.Stats(); st.HitsLate != 1 || st.HitsTimely != 1 {
		t.Errorf("stats %+v, want one late and one timely hit", st)
	}
	for _, b := range []isa.Block{1, 2, 3} {
		if _, ok := p.Probe(b, 30); ok {
			t.Errorf("Probe(%d) hit after its entry was used (or never prefetched)", b)
		}
	}
	if st := p.Stats(); st.Hits() != 2 || st.Discards != 0 {
		t.Errorf("stats %+v, want the two hits and no discards", st)
	}
}

// TestDiscontinuityLateHit: a discontinuity target fetched before its
// prefetch arrives is a late hit that still reports the arrival cycle.
func TestDiscontinuityLateHit(t *testing.T) {
	mem := &fakeMem{latency: 20}
	d := NewDiscontinuity(DiscontinuityConfig{}, 0, mem, &fakeL1{resident: map[isa.Block]bool{}})
	from, to := isa.Block(0x100), isa.Block(0x900)
	d.OnFetchBlock(from, FetchMiss, 0)
	d.OnFetchBlock(to, FetchMiss, 10)
	d.OnFetchBlock(from, FetchL1Hit, 20) // prefetches to, arriving at 40
	if ready, ok := d.Probe(to, 30); !ok || ready != 40 {
		t.Fatalf("Probe = %d,%v; want 40,true", ready, ok)
	}
	if st := d.Stats(); st.HitsLate != 1 || st.HitsTimely != 0 || st.Issued != 3 {
		t.Errorf("stats %+v, want one late hit of 3 sent (target plus depth 2)", st)
	}
}
