package cfg

import (
	"testing"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// buildTestProgram makes a small three-layer program: two leaves, two mid
// functions calling leaves, one driver calling mids, one OS handler.
func buildTestProgram(t testing.TB, seed string) (*Program, []FuncID, []FuncID) {
	t.Helper()
	b := NewBuilder(xrand.NewFromString(seed))
	app := b.Region("app", 0x1000_0000)
	os := b.Region("os", 0xf000_0000)

	leaf1 := b.AddFunc(app, "leaf1", FuncSpec{Instrs: 40, HammockFrac: 0.6, Unpredictable: 0.3})
	leaf2 := b.AddFunc(app, "leaf2", FuncSpec{Instrs: 60, LoopFrac: 0.4})
	mid1 := b.AddFunc(app, "mid1", FuncSpec{
		Instrs: 300, HammockFrac: 0.3, LoopFrac: 0.1, CallFrac: 0.3,
		Callees: []FuncID{leaf1, leaf2}, CalleeFanout: 2, Unpredictable: 0.3,
	})
	mid2 := b.AddFunc(app, "mid2", FuncSpec{
		Instrs: 250, HammockFrac: 0.2, CallFrac: 0.3, Callees: []FuncID{leaf1, leaf2},
	})
	drv := b.AddFunc(app, "driver", FuncSpec{
		Instrs: 400, CallFrac: 0.5, Callees: []FuncID{mid1, mid2}, CalleeFanout: 2,
	})
	osHelper := b.AddFunc(os, "os.highbit", FuncSpec{Instrs: 48, HammockFrac: 0.8})
	sched := b.AddFunc(os, "os.sched", FuncSpec{
		Instrs: 200, HammockFrac: 0.3, CallFrac: 0.3,
		Callees: []FuncID{osHelper}, Serializing: true,
	})
	prog := b.MustBuild()
	return prog, []FuncID{drv}, []FuncID{sched}
}

func TestBuilderProducesValidProgram(t *testing.T) {
	prog, _, _ := buildTestProgram(t, "valid")
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(prog.Funcs) != 7 {
		t.Errorf("got %d funcs", len(prog.Funcs))
	}
	if len(prog.Regions) != 2 {
		t.Errorf("got %d regions", len(prog.Regions))
	}
	if prog.Regions[0].Name != "app" || prog.Regions[0].Funcs != 5 {
		t.Errorf("app region = %+v", prog.Regions[0])
	}
}

func TestBuilderDeterministic(t *testing.T) {
	p1, _, _ := buildTestProgram(t, "same")
	p2, _, _ := buildTestProgram(t, "same")
	if len(p1.Funcs) != len(p2.Funcs) {
		t.Fatal("function counts differ")
	}
	for i := range p1.Funcs {
		f1, f2 := &p1.Funcs[i], &p2.Funcs[i]
		b1, b2 := p1.FuncBlocks(FuncID(i)), p2.FuncBlocks(FuncID(i))
		if f1.Entry != f2.Entry || f1.Instrs != f2.Instrs || len(b1) != len(b2) {
			t.Fatalf("func %d differs: %+v vs %+v", i, f1, f2)
		}
		for j := range b1 {
			if b1[j] != b2[j] {
				t.Fatalf("func %d block %d differs: %+v vs %+v", i, j, b1[j], b2[j])
			}
		}
	}
	if len(p1.Calls) != len(p2.Calls) {
		t.Fatalf("indirect call sites: %d vs %d", len(p1.Calls), len(p2.Calls))
	}
}

func TestBuilderSeedsDiffer(t *testing.T) {
	p1, _, _ := buildTestProgram(t, "seed-a")
	p2, _, _ := buildTestProgram(t, "seed-b")
	same := true
	if len(p1.Funcs) != len(p2.Funcs) {
		same = false
	} else {
		for i := range p1.Funcs {
			if p1.Funcs[i].Instrs != p2.Funcs[i].Instrs {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced structurally identical programs")
	}
}

func TestFunctionsAreContiguousAndDisjoint(t *testing.T) {
	prog, _, _ := buildTestProgram(t, "layout")
	var prevEnd isa.Addr
	var prevRegion string
	for id, f := range prog.Funcs {
		if f.Region == prevRegion && f.Entry < prevEnd {
			t.Errorf("function %s at %v overlaps previous end %v", f.Name, f.Entry, prevEnd)
		}
		pc := f.Entry
		for _, b := range prog.FuncBlocks(FuncID(id)) {
			if b.PC != pc {
				t.Fatalf("%s: block at %v, want %v", f.Name, b.PC, pc)
			}
			pc = pc.Add(int(b.Instrs))
		}
		prevEnd = pc
		prevRegion = f.Region
	}
}

func TestFunctionSizeApproximatesSpec(t *testing.T) {
	b := NewBuilder(xrand.NewFromString("size"))
	app := b.Region("app", 0x1000_0000)
	id := b.AddFunc(app, "f", FuncSpec{Instrs: 1000, HammockFrac: 0.3, LoopFrac: 0.1})
	prog := b.MustBuild()
	f := prog.Func(id)
	// Generation overshoots by at most one segment (~tens of instructions).
	if f.Instrs < 1000 || f.Instrs > 1200 {
		t.Errorf("Instrs = %d, want ~1000", f.Instrs)
	}
	if f.SizeBytes() != f.Instrs*4 {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
}

func TestProgramTotals(t *testing.T) {
	prog, _, _ := buildTestProgram(t, "totals")
	total := 0
	for _, f := range prog.Funcs {
		total += f.SizeBytes()
	}
	if prog.TotalBytes() != total {
		t.Errorf("TotalBytes = %d, want %d", prog.TotalBytes(), total)
	}
	blocks := prog.TotalBlocks()
	// Each 64-byte block holds 16 instructions; padding means block count
	// is at least total/64.
	if blocks < total/64 {
		t.Errorf("TotalBlocks = %d, too small for %d bytes", blocks, total)
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	mk := func() *Program {
		return &Program{
			Blocks: []BasicBlock{
				{PC: 0x100, Instrs: 4, Kind: isa.CTFallthrough},
				{PC: 0x110, Instrs: 2, Kind: isa.CTReturn},
			},
			Funcs: []Function{{Name: "f", Entry: 0x100, First: 0, End: 2, Instrs: 6}},
		}
	}

	if err := mk().Validate(); err != nil {
		t.Fatalf("baseline should validate: %v", err)
	}

	p := mk()
	p.Blocks[0].Kind, p.Blocks[0].Succ = isa.CTBranch, 5
	if p.Validate() == nil {
		t.Error("out-of-range branch target not caught")
	}

	p = mk()
	p.Blocks[1].PC = 0x200
	if p.Validate() == nil {
		t.Error("non-contiguous layout not caught")
	}

	p = mk()
	p.Blocks[1].Kind, p.Blocks[1].Succ, p.Blocks[1].Target = isa.CTCall, 0, 0x100
	if p.Validate() == nil {
		t.Error("trailing call not caught")
	}

	p = mk()
	p.Blocks[1].Kind = isa.CTFallthrough
	if p.Validate() == nil {
		t.Error("fall-off-the-end not caught")
	}

	p = mk()
	p.Blocks[0].Instrs = 0
	if p.Validate() == nil {
		t.Error("empty block not caught")
	}

	p = mk()
	p.Funcs[0].Entry = 0x40
	if p.Validate() == nil {
		t.Error("entry mismatch not caught")
	}

	p = &Program{Funcs: []Function{{Name: "empty"}}}
	if p.Validate() == nil {
		t.Error("function with no blocks not caught")
	}

	p = mk()
	p.Blocks[0].Kind, p.Blocks[0].Indirect = isa.CTCall, true
	p.Calls = []CallSite{{}}
	if p.Validate() == nil {
		t.Error("call without callees not caught")
	}

	p = mk()
	p.Blocks[0].Kind, p.Blocks[0].Indirect = isa.CTCall, true
	p.Calls = []CallSite{{Callees: []FuncID{0, 3}, Zipf: xrand.NewZipfTable(2, 1)}}
	if p.Validate() == nil {
		t.Error("out-of-range callee not caught")
	}

	p = mk()
	p.Blocks[0].Kind, p.Blocks[0].Succ, p.Blocks[0].Target = isa.CTBranch, 1, 0x110
	p.Blocks[0].TakenProb = 1.5
	if p.Validate() == nil {
		t.Error("invalid TakenProb not caught")
	}

	// Table invariants: successor PCs match their entries, direct calls
	// land on function entries, and functions tile the table.
	p = mk()
	p.Blocks[0].Kind, p.Blocks[0].Succ, p.Blocks[0].Target = isa.CTBranch, 1, 0x120
	if p.Validate() == nil {
		t.Error("branch target PC mismatch not caught")
	}

	p = mk()
	p.Blocks[0].Kind, p.Blocks[0].Succ, p.Blocks[0].Target = isa.CTCall, 1, 0x110
	if p.Validate() == nil {
		t.Error("direct call into a function body not caught")
	}

	p = mk()
	p.Funcs[0].End = 1
	if p.Validate() == nil {
		t.Error("table entries outside every function not caught")
	}

	p = mk()
	p.Blocks[1].Serializing = true
	if p.Validate() == nil {
		t.Error("serializing non-entry block not caught")
	}
}

func TestBuildTwicePanicsOrErrors(t *testing.T) {
	b := NewBuilder(xrand.NewFromString("twice"))
	app := b.Region("app", 0x1000)
	b.AddFunc(app, "f", FuncSpec{Instrs: 20})
	b.MustBuild()
	if _, err := b.Build(); err == nil {
		t.Error("second Build should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddFunc after Build should panic")
		}
	}()
	b.AddFunc(app, "g", FuncSpec{Instrs: 20})
}

func TestBuildRejectsUnknownCallee(t *testing.T) {
	b := NewBuilder(xrand.NewFromString("callee"))
	app := b.Region("app", 0x1000)
	b.AddFunc(app, "f", FuncSpec{Instrs: 200, CallFrac: 1, Callees: []FuncID{7}})
	if _, err := b.Build(); err == nil {
		t.Error("call to a function that does not exist accepted")
	}
}
