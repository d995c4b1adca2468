package cpu

import (
	"sort"
	"testing"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// refNLBuffer is the scan-based next-line buffer that nlBuffer replaced,
// kept verbatim as the reference the O(1) buffer must match: SoA
// slices scanned backwards, an exact counting filter over the low block
// bits, and age stamps scanned for the oldest entry on eviction.
type refNLBuffer struct {
	nlBlock []isa.Block
	nlReady []uint64
	nlUsed  []uint64
	nlCount [256]uint8
	nlSeq   uint64
}

func (c *refNLBuffer) nlFind(b isa.Block) int {
	if c.nlCount[uint64(b)&255] == 0 {
		return -1
	}
	for i := len(c.nlBlock) - 1; i >= 0; i-- {
		if c.nlBlock[i] == b {
			return i
		}
	}
	return -1
}

func (c *refNLBuffer) nlRemove(i int) {
	c.nlCount[uint64(c.nlBlock[i])&255]--
	last := len(c.nlBlock) - 1
	c.nlBlock[i] = c.nlBlock[last]
	c.nlReady[i] = c.nlReady[last]
	c.nlUsed[i] = c.nlUsed[last]
	c.nlBlock = c.nlBlock[:last]
	c.nlReady = c.nlReady[:last]
	c.nlUsed = c.nlUsed[:last]
}

func (c *refNLBuffer) nlDrop(b isa.Block) {
	if i := c.nlFind(b); i >= 0 {
		c.nlRemove(i)
	}
}

func (c *refNLBuffer) nlProbe(b isa.Block) (uint64, bool) {
	i := c.nlFind(b)
	if i < 0 {
		return 0, false
	}
	ready := c.nlReady[i]
	c.nlRemove(i)
	return ready, true
}

// nlInsert is the insertion step of the old nlIssue for one absent
// block, returning the entry it evicted.
func (c *refNLBuffer) nlInsert(nb isa.Block, ready uint64) (victim isa.Block, evicted bool) {
	c.nlSeq++
	c.nlCount[uint64(nb)&255]++
	if len(c.nlBlock) < nlCapacity {
		c.nlBlock = append(c.nlBlock, nb)
		c.nlReady = append(c.nlReady, ready)
		c.nlUsed = append(c.nlUsed, c.nlSeq)
		return 0, false
	}
	oldest := 0
	for i := 1; i < len(c.nlUsed); i++ {
		if c.nlUsed[i] < c.nlUsed[oldest] {
			oldest = i
		}
	}
	victim = c.nlBlock[oldest]
	c.nlCount[uint64(c.nlBlock[oldest])&255]--
	c.nlBlock[oldest] = nb
	c.nlReady[oldest] = ready
	c.nlUsed[oldest] = c.nlSeq
	return victim, true
}

// nlEntry is one buffered block and its ready cycle.
type nlEntry struct {
	block isa.Block
	ready uint64
}

// entries lists the reference's contents oldest first.
func (c *refNLBuffer) entries() []nlEntry {
	idx := make([]int, len(c.nlBlock))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.nlUsed[idx[a]] < c.nlUsed[idx[b]] })
	out := make([]nlEntry, len(idx))
	for k, i := range idx {
		out[k] = nlEntry{c.nlBlock[i], c.nlReady[i]}
	}
	return out
}

// entries lists the buffer's contents oldest first by walking the
// insertion-order list.
func (nl *nlBuffer) entries() []nlEntry {
	var out []nlEntry
	for s := nl.newer[0]; s != 0; s = nl.newer[s] {
		out = append(out, nlEntry{nl.block[s], nl.ready[s]})
	}
	return out
}

// The three ways the fetch unit touches the buffer.
const (
	nlIssueOp = iota // nlIssue: insert the block unless it is present
	nlProbeOp        // an L1 miss consuming the block's ready cycle
	nlDropOp         // a prefetcher hit dropping the stale copy
)

type nlOp struct {
	kind  int
	block isa.Block
}

// nlTally counts what an op sequence exercised.
type nlTally struct{ hits, evictions, sharedBucket int }

// checkNLBufferMatchesReference drives ops through nlBuffer and the
// reference and fails on the first differing presence answer, ready
// cycle or eviction victim, or on differing contents after any op.
func checkNLBufferMatchesReference(t testing.TB, ops []nlOp) nlTally {
	t.Helper()
	var nl nlBuffer
	var ref refNLBuffer
	var tally nlTally
	for i, op := range ops {
		ready := uint64(i) + 1 // distinct per op, so a swapped entry shows
		b := op.block
		switch op.kind {
		case nlIssueOp:
			got, want := nl.contains(b), ref.nlFind(b) >= 0
			if got != want {
				t.Fatalf("op %d: issue %#x: present %v, reference %v", i, b, got, want)
			}
			if got {
				continue
			}
			var victim isa.Block
			evicted := nl.live == nlCapacity
			if evicted {
				victim = nl.block[nl.newer[0]]
			}
			if nl.bucket[uint8(b)] != 0 {
				tally.sharedBucket++
			}
			nl.insert(b, ready)
			wantVictim, wantEvicted := ref.nlInsert(b, ready)
			if evicted != wantEvicted || victim != wantVictim {
				t.Fatalf("op %d: issue %#x evicted (%v, %#x), reference (%v, %#x)",
					i, b, evicted, victim, wantEvicted, wantVictim)
			}
			if evicted {
				tally.evictions++
			}
		case nlProbeOp:
			got, gotOK := nl.take(b)
			want, wantOK := ref.nlProbe(b)
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: probe %#x = (%d, %v), reference (%d, %v)", i, b, got, gotOK, want, wantOK)
			}
			if gotOK {
				tally.hits++
			}
		case nlDropOp:
			wantOK := ref.nlFind(b) >= 0
			ref.nlDrop(b)
			if _, gotOK := nl.take(b); gotOK != wantOK {
				t.Fatalf("op %d: drop %#x removed %v, reference %v", i, b, gotOK, wantOK)
			}
		}
		got, want := nl.entries(), ref.entries()
		if len(got) != len(want) || int(nl.live) != len(want) {
			t.Fatalf("op %d: %d entries (live %d), reference %d", i, len(got), nl.live, len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("op %d: entry %d (oldest first) = %+v, reference %+v", i, k, got[k], want[k])
			}
		}
	}
	return tally
}

// TestNextLineBufferMatchesReference replays random op sequences over
// block universes that range from spread out (few shared chains) to 16
// blocks per chain, all larger than the buffer so it fills and evicts.
func TestNextLineBufferMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lows, aliases int // the universe is lows x aliases blocks
	}{
		{"spread", 256, 1},
		{"mixed", 100, 3},
		{"same-bucket", 16, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(uint64(tc.lows*1000 + tc.aliases))
			ops := make([]nlOp, 20_000)
			for i := range ops {
				kind := nlIssueOp
				switch r := rng.Intn(20); {
				case r >= 17:
					kind = nlDropOp
				case r >= 12:
					kind = nlProbeOp
				}
				b := isa.Block(0x4000 + rng.Intn(tc.lows) + 256*rng.Intn(tc.aliases))
				ops[i] = nlOp{kind, b}
			}
			tally := checkNLBufferMatchesReference(t, ops)
			if tally.hits == 0 || tally.evictions == 0 || tc.aliases > 1 && tally.sharedBucket == 0 {
				t.Errorf("sequence missed a case: %+v", tally)
			}
		})
	}
}

// FuzzNextLineBufferMatchesReference decodes byte pairs into ops over
// 256 blocks in 32 hash chains, 8 blocks per chain.
func FuzzNextLineBufferMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 33, 2, 33, 3, 1, 0, 65, 0, 97, 2, 1})
	fill := make([]byte, 0, 2*200)
	for i := 0; i < 200; i++ {
		fill = append(fill, 0, byte(i*7))
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]nlOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			kind := nlIssueOp // issue on 0 and 1, so runs fill the buffer
			switch data[i] % 4 {
			case 2:
				kind = nlProbeOp
			case 3:
				kind = nlDropOp
			}
			sel := data[i+1]
			ops = append(ops, nlOp{kind, isa.Block(sel&31) | isa.Block(sel>>5)<<8})
		}
		checkNLBufferMatchesReference(t, ops)
	})
}
