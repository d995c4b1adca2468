// Package cfg implements the synthetic program model that substitutes for
// the paper's FLEXUS full-system instruction traces (see the README's
// "Substitutions" section).
//
// A Program is a static code image: functions made of basic blocks with
// structured control flow — straight-line runs, branch hammocks, inner
// loops, and call sites — laid out in disjoint address regions
// (application, shared library, OS). An Executor walks the program with
// seeded data-dependent branch outcomes, transaction dispatch, OS traps,
// and context switches, emitting the per-core instruction fetch streams
// that every cache, predictor, and analysis in this repository consumes.
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

// Terminator describes how a basic block ends and where control can go.
// Successors are block indices within the same function; calls name other
// functions.
type Terminator struct {
	// Kind is the control-transfer kind ending the block. CTFallthrough
	// blocks simply continue at the next block index.
	Kind isa.CTKind
	// TakenIdx is the in-function successor when a CTBranch is taken or a
	// CTJump executes. Backward TakenIdx (< own index) closes a loop.
	TakenIdx int
	// TakenProb is the per-execution probability that a CTBranch is taken.
	// It encodes the data dependence of the branch: values near 0 or 1 are
	// predictable, values near 0.5 model the re-convergent hammocks of
	// paper Section 3.2.
	TakenProb float64
	// InnerLoop marks a backward branch that closes an innermost loop
	// (excluded from the Fig. 10 lookahead accounting).
	InnerLoop bool
	// Callees lists candidate callee functions for CTCall blocks. A single
	// entry is a direct call; multiple entries model an indirect call site
	// whose target is data-dependent, selected by CalleeZipf.
	Callees []FuncID
	// CalleeZipf selects among Callees (rank 0 most likely). nil when
	// len(Callees) <= 1.
	CalleeZipf *xrand.ZipfTable
}

// BasicBlock is a static basic block: a straight run of instructions with
// one terminator. PC is assigned at Program build time.
type BasicBlock struct {
	// PC is the address of the first instruction.
	PC isa.Addr
	// Instrs is the instruction count, >= 1. Straight-line blocks may span
	// several cache blocks, reproducing the paper's "unpredictable
	// sequential fetch" scenario (Section 3.1).
	Instrs int
	// Term is the block terminator.
	Term Terminator
}

// Function is a generated function: contiguous basic blocks starting at
// Entry.
type Function struct {
	// ID is the function's index in Program.Funcs.
	ID FuncID
	// Name is a human-readable label ("app.f17", "os.sched").
	Name string
	// Entry is the address of Blocks[0].
	Entry isa.Addr
	// Blocks are the basic blocks in layout order. Fallthrough from block i
	// goes to block i+1; the final block returns.
	Blocks []*BasicBlock
	// Instrs is the total instruction count.
	Instrs int
	// Serializing marks functions whose entry begins with synchronization
	// instructions that drain the ROB (the paper's scheduler-entry
	// scenario, Section 3.1).
	Serializing bool
	// Region is the name of the address region containing the function.
	Region string
}

// SizeBytes returns the function's code footprint in bytes.
func (f *Function) SizeBytes() int { return f.Instrs * isa.InstrBytes }

// Program is a complete static code image.
type Program struct {
	// Funcs holds every function, indexed by FuncID.
	Funcs []*Function
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
	return p.Funcs[id]
}

// TotalBytes returns the program's total code footprint in bytes
// (excluding inter-function padding).
func (p *Program) TotalBytes() int {
	total := 0
	for _, f := range p.Funcs {
		total += f.SizeBytes()
	}
	return total
}

// TotalBlocks returns the number of distinct 64-byte cache blocks the
// program image touches — the instruction working set in blocks.
func (p *Program) TotalBlocks() int {
	seen := make(map[isa.Block]struct{})
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			ev := isa.BlockEvent{PC: b.PC, Instrs: b.Instrs}
			ev.VisitBlocks(func(blk isa.Block) bool {
				seen[blk] = struct{}{}
				return true
			})
		}
	}
	return len(seen)
}

// Validate checks structural invariants of the program: contiguous block
// layout, in-range terminator targets, call sites with callees, and final
// return blocks. The builder always produces valid programs; Validate
// guards hand-constructed test programs and future builders.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("cfg: function %s has no blocks", f.Name)
		}
		if f.Blocks[0].PC != f.Entry {
			return fmt.Errorf("cfg: function %s entry %v != first block PC %v", f.Name, f.Entry, f.Blocks[0].PC)
		}
		pc := f.Entry
		for i, b := range f.Blocks {
			if b.Instrs < 1 {
				return fmt.Errorf("cfg: %s block %d has %d instrs", f.Name, i, b.Instrs)
			}
			if b.PC != pc {
				return fmt.Errorf("cfg: %s block %d PC %v, want %v (non-contiguous)", f.Name, i, b.PC, pc)
			}
			pc = pc.Add(b.Instrs)
			switch b.Term.Kind {
			case isa.CTBranch, isa.CTJump:
				if b.Term.TakenIdx < 0 || b.Term.TakenIdx >= len(f.Blocks) {
					return fmt.Errorf("cfg: %s block %d target %d out of range", f.Name, i, b.Term.TakenIdx)
				}
				if b.Term.Kind == isa.CTBranch && (b.Term.TakenProb < 0 || b.Term.TakenProb > 1) {
					return fmt.Errorf("cfg: %s block %d TakenProb %f", f.Name, i, b.Term.TakenProb)
				}
			case isa.CTCall:
				if len(b.Term.Callees) == 0 {
					return fmt.Errorf("cfg: %s block %d call with no callees", f.Name, i)
				}
				for _, c := range b.Term.Callees {
					if int(c) < 0 || int(c) >= len(p.Funcs) {
						return fmt.Errorf("cfg: %s block %d callee %d out of range", f.Name, i, c)
					}
				}
				if i == len(f.Blocks)-1 {
					return fmt.Errorf("cfg: %s ends with a call (no return continuation)", f.Name)
				}
			}
			// Fallthrough and not-taken branches need a next block.
			needsNext := b.Term.Kind == isa.CTFallthrough || b.Term.Kind == isa.CTBranch || b.Term.Kind == isa.CTCall
			if needsNext && i == len(f.Blocks)-1 {
				return fmt.Errorf("cfg: %s final block kind %v falls off the end", f.Name, b.Term.Kind)
			}
		}
		last := f.Blocks[len(f.Blocks)-1]
		if last.Term.Kind != isa.CTReturn && last.Term.Kind != isa.CTJump {
			return fmt.Errorf("cfg: %s final block kind %v, want return or jump", f.Name, last.Term.Kind)
		}
	}
	return nil
}
