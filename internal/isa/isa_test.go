package isa

import (
	"testing"
	"testing/quick"
)

func TestAddrBlockRoundTrip(t *testing.T) {
	cases := []struct {
		addr  Addr
		block Block
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{0x1000, 0x40},
		{0xffffffffffffffff, 0x3ffffffffffffff},
	}
	for _, c := range cases {
		if got := c.addr.Block(); got != c.block {
			t.Errorf("Addr(%v).Block() = %v, want %v", c.addr, got, c.block)
		}
	}
}

func TestBlockAddrIsBlockStart(t *testing.T) {
	f := func(b uint32) bool {
		blk := Block(b)
		a := blk.Addr()
		return a.Block() == blk && a.Offset() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrOffset(t *testing.T) {
	if got := Addr(67).Offset(); got != 3 {
		t.Errorf("Addr(67).Offset() = %d, want 3", got)
	}
	if got := Addr(64).Offset(); got != 0 {
		t.Errorf("Addr(64).Offset() = %d, want 0", got)
	}
}

func TestAddrAdd(t *testing.T) {
	a := Addr(0x100)
	if got := a.Add(3); got != 0x10c {
		t.Errorf("Add(3) = %v, want 0x10c", got)
	}
	if got := a.Add(0); got != a {
		t.Errorf("Add(0) = %v, want %v", got, a)
	}
}

func TestBlockNext(t *testing.T) {
	if got := Block(7).Next(); got != 8 {
		t.Errorf("Next() = %v, want 8", got)
	}
}

func TestGeometryConstants(t *testing.T) {
	if InstrsPerBlock != 16 {
		t.Errorf("InstrsPerBlock = %d, want 16", InstrsPerBlock)
	}
	if 1<<BlockShift != BlockBytes {
		t.Errorf("1<<BlockShift = %d, want %d", 1<<BlockShift, BlockBytes)
	}
}

func TestCTKindIsDiscontinuity(t *testing.T) {
	cases := []struct {
		kind  CTKind
		taken bool
		want  bool
	}{
		{CTFallthrough, false, false},
		{CTFallthrough, true, false},
		{CTBranch, false, false},
		{CTBranch, true, true},
		{CTJump, true, true},
		{CTCall, true, true},
		{CTReturn, true, true},
		{CTTrap, true, true},
		{CTTrapReturn, true, true},
	}
	for _, c := range cases {
		if got := c.kind.IsDiscontinuity(c.taken); got != c.want {
			t.Errorf("%v.IsDiscontinuity(%v) = %v, want %v", c.kind, c.taken, got, c.want)
		}
	}
}

func TestCTKindIsConditional(t *testing.T) {
	if !CTBranch.IsConditional() {
		t.Error("CTBranch should be conditional")
	}
	for _, k := range []CTKind{CTFallthrough, CTJump, CTCall, CTReturn, CTTrap, CTTrapReturn} {
		if k.IsConditional() {
			t.Errorf("%v should not be conditional", k)
		}
	}
}

func TestCTKindString(t *testing.T) {
	known := map[CTKind]string{
		CTFallthrough: "fall",
		CTBranch:      "br",
		CTJump:        "jmp",
		CTCall:        "call",
		CTReturn:      "ret",
		CTTrap:        "trap",
		CTTrapReturn:  "rett",
	}
	for k, want := range known {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := CTKind(99).String(); got != "ct(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestBlockEventPCs(t *testing.T) {
	e := BlockEvent{PC: 0x100, Instrs: 4, Kind: CTBranch, Taken: true, Target: 0x400}
	if got := e.LastPC(); got != 0x10c {
		t.Errorf("LastPC = %v, want 0x10c", got)
	}
	if got := e.FallthroughPC(); got != 0x110 {
		t.Errorf("FallthroughPC = %v, want 0x110", got)
	}
	if got := e.NextPC(); got != 0x400 {
		t.Errorf("NextPC (taken) = %v, want 0x400", got)
	}
	e.Taken = false
	if got := e.NextPC(); got != 0x110 {
		t.Errorf("NextPC (not taken) = %v, want 0x110", got)
	}
}

func TestBlockEventNextPCFallthroughKind(t *testing.T) {
	e := BlockEvent{PC: 0x100, Instrs: 16, Kind: CTFallthrough, Taken: true, Target: 0xdead}
	if got := e.NextPC(); got != e.FallthroughPC() {
		t.Errorf("CTFallthrough NextPC = %v, want %v", got, e.FallthroughPC())
	}
}

// The fetch unit, the miss extractor and FDIP visit an event's cache
// blocks as the range PC.Block() through LastPC().Block().
func TestBlockEventBlocks(t *testing.T) {
	// Block starting mid cache block and spanning into the next.
	e := BlockEvent{PC: 0x3c, Instrs: 3} // covers 0x3c..0x44: blocks 0 and 1
	if first, last := e.PC.Block(), e.LastPC().Block(); first != 0 || last != 1 {
		t.Errorf("blocks %v..%v, want 0..1", first, last)
	}

	// Single-instruction block: exactly one cache block.
	e = BlockEvent{PC: 0x40, Instrs: 1}
	if first, last := e.PC.Block(), e.LastPC().Block(); first != 1 || last != 1 {
		t.Errorf("blocks %v..%v, want 1..1", first, last)
	}
}

func TestBlockEventBlocksSpanMany(t *testing.T) {
	// 64 instructions from a block-aligned start cover exactly 4 blocks.
	e := BlockEvent{PC: 0x0, Instrs: 64}
	if first, last := e.PC.Block(), e.LastPC().Block(); first != 0 || last != 3 {
		t.Errorf("blocks %v..%v, want 0..3", first, last)
	}
}

// TestBlockRangeCoversEveryInstruction: the block range holds exactly
// the blocks of the event's instructions, with no gap.
func TestBlockRangeCoversEveryInstruction(t *testing.T) {
	f := func(pcRaw uint32, n uint8) bool {
		e := BlockEvent{PC: Addr(pcRaw), Instrs: int(n%80) + 1}
		first, last := e.PC.Block(), e.LastPC().Block()
		want := first
		for i := 0; i < e.Instrs; i++ {
			switch b := e.PC.Add(i).Block(); b {
			case want:
			case want + 1:
				want = b
			default:
				return false
			}
		}
		return want == last
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscontinuityEvent(t *testing.T) {
	e := BlockEvent{PC: 0, Instrs: 1, Kind: CTBranch, Taken: true, Target: 0x1000}
	if !e.Discontinuity() {
		t.Error("taken branch should be a discontinuity")
	}
	e.Taken = false
	if e.Discontinuity() {
		t.Error("not-taken branch should not be a discontinuity")
	}
}
