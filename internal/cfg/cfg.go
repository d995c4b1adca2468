// Package cfg implements the synthetic program model that substitutes for
// the paper's FLEXUS full-system instruction traces (see the README's
// "Substitutions" section).
//
// A Program is a static code image: functions made of basic blocks with
// structured control flow — straight-line runs, branch hammocks, inner
// loops, and call sites — laid out in disjoint address regions
// (application, shared library, OS). The image is stored as one flat table
// of fixed-size, pointer-free block entries, each function an index range
// of it, with every successor resolved at build time to a table index and
// its PC. An Executor walks the table with seeded data-dependent branch
// outcomes, transaction dispatch, OS traps, and context switches,
// emitting the per-core instruction fetch streams that every cache,
// predictor, and analysis in this repository consumes.
//
// The generator does not sample target statistics directly; all
// predictor-visible structure (recurring miss sequences, stream lengths,
// fetch discontinuities) emerges from actually traversing the generated
// control-flow graphs, which is the property TIFS exploits.
package cfg

import (
	"fmt"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// FuncID identifies a function within a Program.
type FuncID int

// NoFunc is the invalid function ID.
const NoFunc FuncID = -1

// BasicBlock is one entry of the program table: a static basic block, a
// straight run of instructions ending in one terminator. Entries hold no
// pointers; every successor is a table index, resolved by Builder.Build
// together with its PC.
type BasicBlock struct {
	// PC is the address of the first instruction.
	PC isa.Addr
	// Target is the PC of Succ for CTBranch, CTJump and direct CTCall
	// blocks: the taken successor, the jump target, or the callee's entry.
	// Indirect calls and other kinds leave it zero.
	Target isa.Addr
	// TakenProb is the per-execution probability that a CTBranch is taken.
	// It encodes the data dependence of the branch: values near 0 or 1 are
	// predictable, values near 0.5 model the re-convergent hammocks of
	// paper Section 3.2.
	TakenProb float64
	// Succ is the table index of Target: a CTBranch's taken successor or a
	// CTJump's target, both inside the block's own function (a backward
	// Succ closes a loop), or a direct CTCall's callee entry. For an
	// indirect CTCall it indexes Program.Calls instead. Fallthrough and
	// not-taken branches continue at the next entry.
	Succ int32
	// Instrs is the instruction count, >= 1. Straight-line blocks may span
	// several cache blocks, reproducing the paper's "unpredictable
	// sequential fetch" scenario (Section 3.1).
	Instrs int32
	// Kind is the control-transfer kind ending the block.
	Kind isa.CTKind
	// InnerLoop marks a backward branch that closes an innermost loop
	// (excluded from the Fig. 10 lookahead accounting).
	InnerLoop bool
	// Indirect marks a CTCall whose callee is data-dependent: drawn from
	// the call site Program.Calls[Succ] on every execution.
	Indirect bool
	// Serializing marks the entry block of a function that begins with
	// synchronization instructions that drain the ROB (the paper's
	// scheduler-entry scenario, Section 3.1).
	Serializing bool
}

// CallSite is an indirect call site: the candidate callees and the Zipf
// table that selects among them (rank 0 most likely).
type CallSite struct {
	Callees []FuncID
	Zipf    *xrand.ZipfTable
}

// Function is a generated function: the contiguous run of table entries
// [First, End) starting at Entry. Fallthrough from entry i goes to entry
// i+1; the final entry returns or jumps.
type Function struct {
	// Name is a human-readable label ("app.f17", "os.sched").
	Name string
	// Entry is the address of the first block, Program.Blocks[First].PC.
	Entry isa.Addr
	// First and End bound the function's blocks in Program.Blocks.
	First, End int32
	// Instrs is the total instruction count.
	Instrs int
	// Region is the name of the address region containing the function.
	Region string
}

// SizeBytes returns the function's code footprint in bytes.
func (f *Function) SizeBytes() int { return f.Instrs * isa.InstrBytes }

// Program is a complete static code image, stored as one program-wide
// table of fixed-size, pointer-free block entries. The table is laid out
// function by function in FuncID order, each function's blocks in address
// order, so a function is an index range of it. An Executor walks the
// table by index alone; nothing in it is a heap object of its own.
type Program struct {
	// Blocks is the program table.
	Blocks []BasicBlock
	// Calls holds the indirect call sites, indexed by BasicBlock.Succ.
	Calls []CallSite
	// Funcs holds every function, indexed by FuncID.
	Funcs []Function
	// Regions records the layout regions in creation order.
	Regions []RegionInfo
}

// RegionInfo describes one address region of the program image.
type RegionInfo struct {
	// Name labels the region ("app", "lib", "os").
	Name string
	// Base is the first address of the region.
	Base isa.Addr
	// Bytes is the total code laid out in the region, including padding.
	Bytes int
	// Funcs is the number of functions in the region.
	Funcs int
}

// Func returns the function with the given ID. It panics on an invalid ID;
// IDs only come from the builder, so an invalid ID is a programming error.
func (p *Program) Func(id FuncID) *Function {
	return &p.Funcs[id]
}

// FuncBlocks returns the table entries of function id, in layout order.
// The slice aliases the program table.
func (p *Program) FuncBlocks(id FuncID) []BasicBlock {
	f := &p.Funcs[id]
	return p.Blocks[f.First:f.End]
}

// TotalBytes returns the program's total code footprint in bytes
// (excluding inter-function padding).
func (p *Program) TotalBytes() int {
	total := 0
	for i := range p.Funcs {
		total += p.Funcs[i].SizeBytes()
	}
	return total
}

// TotalBlocks returns the number of distinct 64-byte cache blocks the
// program image touches — the instruction working set in blocks.
func (p *Program) TotalBlocks() int {
	seen := make(map[isa.Block]struct{})
	for _, b := range p.Blocks {
		ev := isa.BlockEvent{PC: b.PC, Instrs: int(b.Instrs)}
		for blk := ev.PC.Block(); blk <= ev.LastPC().Block(); blk++ {
			seen[blk] = struct{}{}
		}
	}
	return len(seen)
}

// Validate checks structural invariants of the program: functions that
// tile the table in order, contiguous block layout, branch and jump
// successors inside their own function, call sites whose callees exist,
// successor PCs that match their entries, and final return blocks. The
// builder always produces valid programs; Validate guards hand-constructed
// test programs and future builders.
func (p *Program) Validate() error {
	isEntry := make([]bool, len(p.Blocks))
	next := int32(0)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.First >= f.End {
			return fmt.Errorf("cfg: function %s has no blocks", f.Name)
		}
		if f.First != next || int(f.End) > len(p.Blocks) {
			return fmt.Errorf("cfg: function %s spans entries [%d, %d), want it to start at %d of %d", f.Name, f.First, f.End, next, len(p.Blocks))
		}
		next = f.End
		isEntry[f.First] = true
	}
	if int(next) != len(p.Blocks) {
		return fmt.Errorf("cfg: %d table entries belong to no function", len(p.Blocks)-int(next))
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if p.Blocks[f.First].PC != f.Entry {
			return fmt.Errorf("cfg: function %s entry %v != first block PC %v", f.Name, f.Entry, p.Blocks[f.First].PC)
		}
		pc := f.Entry
		for j := f.First; j < f.End; j++ {
			b := &p.Blocks[j]
			if err := p.validateBlock(f, j, b, pc, isEntry); err != nil {
				return err
			}
			pc = pc.Add(int(b.Instrs))
		}
		last := &p.Blocks[f.End-1]
		if last.Kind != isa.CTReturn && last.Kind != isa.CTJump {
			return fmt.Errorf("cfg: %s final block kind %v, want return or jump", f.Name, last.Kind)
		}
	}
	return nil
}

// validateBlock checks entry j of function f, which should start at pc.
func (p *Program) validateBlock(f *Function, j int32, b *BasicBlock, pc isa.Addr, isEntry []bool) error {
	i := j - f.First // index within the function, for messages
	if b.Instrs < 1 {
		return fmt.Errorf("cfg: %s block %d has %d instrs", f.Name, i, b.Instrs)
	}
	if b.PC != pc {
		return fmt.Errorf("cfg: %s block %d PC %v, want %v (non-contiguous)", f.Name, i, b.PC, pc)
	}
	if b.Serializing && j != f.First {
		return fmt.Errorf("cfg: %s block %d is serializing but not the entry", f.Name, i)
	}
	switch b.Kind {
	case isa.CTBranch, isa.CTJump:
		if b.Succ < f.First || b.Succ >= f.End {
			return fmt.Errorf("cfg: %s block %d target %d out of range", f.Name, i, b.Succ)
		}
		if b.Target != p.Blocks[b.Succ].PC {
			return fmt.Errorf("cfg: %s block %d target PC %v, want %v", f.Name, i, b.Target, p.Blocks[b.Succ].PC)
		}
		if b.Kind == isa.CTBranch && (b.TakenProb < 0 || b.TakenProb > 1) {
			return fmt.Errorf("cfg: %s block %d TakenProb %f", f.Name, i, b.TakenProb)
		}
	case isa.CTCall:
		if b.Indirect {
			if b.Succ < 0 || int(b.Succ) >= len(p.Calls) {
				return fmt.Errorf("cfg: %s block %d call site %d out of range", f.Name, i, b.Succ)
			}
			site := &p.Calls[b.Succ]
			if len(site.Callees) == 0 {
				return fmt.Errorf("cfg: %s block %d call with no callees", f.Name, i)
			}
			for _, c := range site.Callees {
				if int(c) < 0 || int(c) >= len(p.Funcs) {
					return fmt.Errorf("cfg: %s block %d callee %d out of range", f.Name, i, c)
				}
			}
			if site.Zipf == nil || site.Zipf.N() != len(site.Callees) {
				return fmt.Errorf("cfg: %s block %d call site has no selector over its %d callees", f.Name, i, len(site.Callees))
			}
		} else {
			if b.Succ < 0 || int(b.Succ) >= len(p.Blocks) || !isEntry[b.Succ] {
				return fmt.Errorf("cfg: %s block %d calls entry %d, which is no function's first block", f.Name, i, b.Succ)
			}
			if b.Target != p.Blocks[b.Succ].PC {
				return fmt.Errorf("cfg: %s block %d callee PC %v, want %v", f.Name, i, b.Target, p.Blocks[b.Succ].PC)
			}
		}
		if j == f.End-1 {
			return fmt.Errorf("cfg: %s ends with a call (no return continuation)", f.Name)
		}
	}
	// Fallthrough and not-taken branches need a next block.
	needsNext := b.Kind == isa.CTFallthrough || b.Kind == isa.CTBranch || b.Kind == isa.CTCall
	if needsNext && j == f.End-1 {
		return fmt.Errorf("cfg: %s final block kind %v falls off the end", f.Name, b.Kind)
	}
	return nil
}
