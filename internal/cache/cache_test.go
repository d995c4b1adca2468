package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"tifs/internal/isa"
)

func small(t testing.TB) *Cache {
	t.Helper()
	// 8 blocks, 2-way: 4 sets.
	return New(Config{SizeBytes: 8 * isa.BlockBytes, Assoc: 2})
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeBytes: 64 * 1024, Assoc: 2},
		{SizeBytes: 8 * 1024 * 1024, Assoc: 16},
		{SizeBytes: isa.BlockBytes, Assoc: 1},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 2},
		{SizeBytes: 64 * 1024, Assoc: 0},
		{SizeBytes: 100, Assoc: 1},                // not block multiple
		{SizeBytes: 3 * isa.BlockBytes, Assoc: 2}, // blocks not divisible
		{SizeBytes: 6 * isa.BlockBytes, Assoc: 2}, // 3 sets, not power of 2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with bad config should panic")
		}
	}()
	New(Config{SizeBytes: 100, Assoc: 3})
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small(t)
	b := isa.Block(0x40)
	if c.Access(b) {
		t.Error("cold access should miss")
	}
	if ev, ok := c.Fill(b); ok {
		t.Errorf("fill of an empty set evicted %v", ev)
	}
	if !c.Access(b) {
		t.Error("access after fill should hit")
	}
	if !c.Access(b) {
		t.Error("second access should hit")
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := small(t)
	b0, b4, b8 := isa.Block(0), isa.Block(4), isa.Block(8) // all set 0
	c.Fill(b0)
	c.Fill(b4)
	// Probing the LRU block must not refresh it: b0 stays the victim.
	if !c.Contains(b0) {
		t.Error("Contains should find filled block")
	}
	if c.Contains(isa.Block(99999)) {
		t.Error("Contains found absent block")
	}
	if ev, ok := c.Fill(b8); !ok || ev != b0 {
		t.Errorf("evicted %v,%v; want %v (Contains refreshed LRU)", ev, ok, b0)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2-way
	// Three blocks mapping to set 0: block numbers 0, 4, 8.
	b0, b4, b8 := isa.Block(0), isa.Block(4), isa.Block(8)
	c.Fill(b0)
	c.Fill(b4)
	// Touch b0 so b4 is LRU.
	c.Access(b0)
	evicted, ok := c.Fill(b8)
	if !ok || evicted != b4 {
		t.Errorf("evicted %v,%v; want %v", evicted, ok, b4)
	}
	if !c.Contains(b0) || !c.Contains(b8) || c.Contains(b4) {
		t.Error("wrong residents after eviction")
	}
}

func TestFillExistingRefreshesLRU(t *testing.T) {
	c := small(t)
	b0, b4, b8 := isa.Block(0), isa.Block(4), isa.Block(8)
	c.Fill(b0)
	c.Fill(b4)
	// Re-filling a resident block refreshes it and evicts nothing.
	if ev, ok := c.Fill(b0); ok {
		t.Errorf("re-fill of a resident block evicted %v", ev)
	}
	if ev, ok := c.Fill(b8); !ok || ev != b4 {
		t.Errorf("evicted %v,%v; want %v", ev, ok, b4)
	}
}

// resident counts the blocks of blocks that c holds.
func resident(c *Cache, blocks []isa.Block) int {
	n := 0
	for _, b := range blocks {
		if c.Contains(b) {
			n++
		}
	}
	return n
}

func TestOccupancyBounded(t *testing.T) {
	c := small(t)
	var filled []isa.Block
	for i := 0; i < 1000; i++ {
		filled = append(filled, isa.Block(i*3))
		c.Fill(isa.Block(i * 3))
	}
	if occ := resident(c, filled); occ != 8 {
		t.Errorf("occupancy = %d, want full (8)", occ)
	}
}

func TestSetIsolation(t *testing.T) {
	c := small(t)
	// Fill set 0 to capacity; set 1 must be unaffected.
	c.Fill(isa.Block(0))
	c.Fill(isa.Block(4))
	c.Fill(isa.Block(8))
	if c.Contains(isa.Block(1)) {
		t.Error("set-1 block present before fill")
	}
	c.Fill(isa.Block(1))
	if !c.Contains(isa.Block(1)) {
		t.Error("set-1 block missing")
	}
	// Set 0 churn cannot evict set 1.
	for i := 0; i < 100; i++ {
		c.Fill(isa.Block(i * 4))
	}
	if !c.Contains(isa.Block(1)) {
		t.Error("set-0 churn evicted set-1 block")
	}
}

func TestDirectMapped(t *testing.T) {
	c := New(Config{SizeBytes: 4 * isa.BlockBytes, Assoc: 1})
	c.Fill(isa.Block(0))
	if ev, ok := c.Fill(isa.Block(4)); !ok || ev != 0 {
		t.Errorf("direct-mapped conflict: evicted %v,%v", ev, ok)
	}
}

func TestFullyAssociative(t *testing.T) {
	c := New(Config{SizeBytes: 4 * isa.BlockBytes, Assoc: 4})
	if c.NumSets() != 1 {
		t.Fatalf("NumSets = %d", c.NumSets())
	}
	for i := 0; i < 4; i++ {
		c.Fill(isa.Block(i * 1000))
	}
	// LRU is block 0.
	if ev, ok := c.Fill(isa.Block(9999)); !ok || ev != 0 {
		t.Errorf("evicted %v,%v; want block 0", ev, ok)
	}
}

// Property: a cache never reports a hit for a block that was never filled,
// and always hits a block filled more recently than Assoc-1 other fills to
// its set.
func TestPropertyMostRecentAlwaysResident(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 16 * isa.BlockBytes, Assoc: 4})
		var last isa.Block
		filled := false
		for _, op := range ops {
			b := isa.Block(op % 64)
			c.Fill(b)
			last = b
			filled = true
			// Immediately after a fill, the block must be resident.
			if !c.Contains(b) {
				return false
			}
		}
		if filled && !c.Contains(last) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the resident blocks are exactly the fills of absent blocks
// less the evictions Fill reports, and never exceed capacity.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * isa.BlockBytes, Assoc: 2})
		universe := make([]isa.Block, 32)
		for i := range universe {
			universe[i] = isa.Block(i)
		}
		fills, evictions := 0, 0
		for _, op := range ops {
			b := isa.Block(op % 32)
			if !c.Access(b) {
				fills++
				if _, ok := c.Fill(b); ok {
					evictions++
				}
			}
		}
		occ := resident(c, universe)
		return occ <= 8 && occ == fills-evictions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FillIfAbsent leaves a cache in the state Contains followed,
// on a miss, by Fill does, and reports whether it inserted.
func TestFillIfAbsentMatchesContainsThenFill(t *testing.T) {
	f := func(ops []uint16) bool {
		a := New(Config{SizeBytes: 8 * isa.BlockBytes, Assoc: 2})
		b := New(Config{SizeBytes: 8 * isa.BlockBytes, Assoc: 2})
		for _, op := range ops {
			blk := isa.Block(op % 32)
			if op&0x8000 != 0 {
				if a.Access(blk) != b.Access(blk) {
					return false
				}
				continue
			}
			absent := !b.Contains(blk)
			if absent {
				b.Fill(blk)
			}
			if a.FillIfAbsent(blk) != absent {
				return false
			}
		}
		return a.clock == b.clock && reflect.DeepEqual(a.ways, b.ways)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the model agrees with a reference map-based fully-associative
// LRU implementation when configured with one set.
func TestPropertyMatchesReferenceLRU(t *testing.T) {
	const ways = 4
	f := func(ops []uint8) bool {
		c := New(Config{SizeBytes: ways * isa.BlockBytes, Assoc: ways})
		var ref []isa.Block // front = MRU
		refTouch := func(b isa.Block) bool {
			for i, x := range ref {
				if x == b {
					ref = append(ref[:i], ref[i+1:]...)
					ref = append([]isa.Block{b}, ref...)
					return true
				}
			}
			return false
		}
		refFill := func(b isa.Block) {
			if refTouch(b) {
				return
			}
			if len(ref) == ways {
				ref = ref[:ways-1]
			}
			ref = append([]isa.Block{b}, ref...)
		}
		for _, op := range ops {
			b := isa.Block(op % 16)
			hit := c.Access(b)
			refHit := refTouch(b)
			if hit != refHit {
				return false
			}
			if !hit {
				c.Fill(b)
				refFill(b)
			}
		}
		for _, b := range ref {
			if !c.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{SizeBytes: 64 * 1024, Assoc: 2})
	for i := 0; i < 1024; i++ {
		c.Fill(isa.Block(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := isa.Block(i & 2047)
		if !c.Access(blk) {
			c.Fill(blk)
		}
	}
}
