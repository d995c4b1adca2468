// Package isa defines the address arithmetic and control-flow vocabulary
// shared by every layer of the simulator: physical addresses, 64-byte
// instruction-cache block geometry, control-transfer kinds, and the
// block-granularity fetch events the synthetic workloads emit.
//
// The modeled ISA follows the paper's UltraSPARC III target in the only two
// respects that matter to instruction prefetching: instructions are a fixed
// 4 bytes, and instruction-cache blocks are 64 bytes (16 instructions).
package isa

import "fmt"

// Geometry constants for the modeled machine. These mirror Table II of the
// paper: 64-byte cache lines and fixed 4-byte instructions.
const (
	// InstrBytes is the size of one instruction in bytes.
	InstrBytes = 4
	// BlockBytes is the size of one cache block in bytes.
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6
	// InstrsPerBlock is the number of instructions in a full cache block.
	InstrsPerBlock = BlockBytes / InstrBytes
)

// Addr is a physical byte address. The workload generator assigns code
// regions disjoint physical ranges, so no translation layer is needed; the
// paper's IMLs likewise record physical addresses (Section 5.1.1).
type Addr uint64

// Block is a cache-block number: the address with the low BlockShift bits
// removed. All cache and predictor structures operate on Blocks.
type Block uint64

// Block returns the cache block containing the address.
func (a Addr) Block() Block { return Block(a >> BlockShift) }

// Offset returns the byte offset of the address within its cache block.
func (a Addr) Offset() uint64 { return uint64(a) & (BlockBytes - 1) }

// Add returns the address advanced by n instructions.
func (a Addr) Add(n int) Addr { return a + Addr(n*InstrBytes) }

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Addr returns the first byte address of the block.
func (b Block) Addr() Addr { return Addr(b << BlockShift) }

// Next returns the immediately following block (sequential successor).
func (b Block) Next() Block { return b + 1 }

// String formats the block number in hex.
func (b Block) String() string { return fmt.Sprintf("blk:0x%x", uint64(b)) }

// CTKind identifies how a basic block terminates. Only the control-transfer
// behaviour matters to instruction fetch; arithmetic semantics do not exist
// in this model.
type CTKind uint8

// Control-transfer kinds.
const (
	// CTFallthrough means the block ends without a taken transfer: fetch
	// continues at the next sequential instruction. Not-taken conditional
	// branches report CTBranch with Taken == false, so CTFallthrough is
	// reserved for straight-line code that merely crossed a block boundary.
	CTFallthrough CTKind = iota
	// CTBranch is a conditional branch; Taken records the outcome.
	CTBranch
	// CTJump is an unconditional direct jump.
	CTJump
	// CTCall is a function call (direct or indirect).
	CTCall
	// CTReturn is a function return.
	CTReturn
	// CTTrap is an entry into OS/trap code (interrupt, syscall, context
	// switch). Traps also act as serializing events that drain the ROB.
	CTTrap
	// CTTrapReturn resumes user execution after a trap.
	CTTrapReturn
)

// String returns a short mnemonic for the control-transfer kind.
func (k CTKind) String() string {
	switch k {
	case CTFallthrough:
		return "fall"
	case CTBranch:
		return "br"
	case CTJump:
		return "jmp"
	case CTCall:
		return "call"
	case CTReturn:
		return "ret"
	case CTTrap:
		return "trap"
	case CTTrapReturn:
		return "rett"
	default:
		return fmt.Sprintf("ct(%d)", uint8(k))
	}
}

// IsDiscontinuity reports whether the terminator, with the given outcome,
// redirects fetch away from the sequential path. Discontinuities are what
// defeat next-line prefetching (paper Section 3.1).
func (k CTKind) IsDiscontinuity(taken bool) bool {
	switch k {
	case CTBranch:
		return taken
	case CTJump, CTCall, CTReturn, CTTrap, CTTrapReturn:
		return true
	default:
		return false
	}
}

// IsConditional reports whether the terminator consults a branch predictor
// direction (only conditional branches do).
func (k CTKind) IsConditional() bool { return k == CTBranch }

// BlockEvent is one dynamic basic block: a run of sequential instructions
// ending in (at most) one control transfer. The workload executor emits a
// stream of BlockEvents per core; the fetch unit expands each event into the
// cache-block accesses it covers.
type BlockEvent struct {
	// PC is the address of the first instruction of the basic block.
	PC Addr
	// Instrs is the number of instructions in the block, >= 1.
	Instrs int
	// Kind is the terminating control transfer.
	Kind CTKind
	// Taken is the branch outcome for CTBranch terminators; all other
	// transfer kinds are unconditionally taken and leave Taken set.
	Taken bool
	// Target is the next PC when the transfer is taken.
	Target Addr
	// InnerLoop marks a backward CTBranch that closes an innermost loop.
	// The Fig. 10 lookahead analysis excludes such branches, as a simple
	// hardware filter could too (paper Section 6.2).
	InnerLoop bool
	// Serializing marks a block that begins with synchronization
	// instructions which drain the ROB before fetch resumes — the paper's
	// scheduler-entry scenario (Section 3.1) that fully exposes the
	// subsequent instruction-cache misses.
	Serializing bool
}

// LastPC returns the address of the final instruction in the block.
func (e BlockEvent) LastPC() Addr { return e.PC.Add(e.Instrs - 1) }

// FallthroughPC returns the address immediately after the block, i.e. the
// next PC when the terminator is not taken.
func (e BlockEvent) FallthroughPC() Addr { return e.PC.Add(e.Instrs) }

// NextPC returns the PC the fetch unit moves to after this block, given the
// recorded outcome.
func (e BlockEvent) NextPC() Addr {
	if e.Kind == CTBranch && !e.Taken {
		return e.FallthroughPC()
	}
	if e.Kind == CTFallthrough {
		return e.FallthroughPC()
	}
	return e.Target
}

// Discontinuity reports whether fetch after this block is non-sequential.
func (e BlockEvent) Discontinuity() bool { return e.Kind.IsDiscontinuity(e.Taken) }
