package cfg

import (
	"fmt"
	"math"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// ExecConfig configures an Executor: which functions are transaction
// drivers, how the OS interrupts execution, and how many software threads
// the core multiplexes.
type ExecConfig struct {
	// Roots are the transaction driver functions. When a thread's call
	// stack empties, the dispatcher selects the next root by Zipf
	// popularity (rank 0 = Roots[0] most popular).
	Roots []FuncID
	// RootSkew is the Zipf skew over Roots; 0 gives a uniform mix.
	RootSkew float64
	// TrapHandlers are OS entry points (scheduler, interrupt handlers).
	// Traps pick uniformly among them. Empty disables traps.
	TrapHandlers []FuncID
	// TrapMeanInstrs is the mean number of instructions between traps
	// (exponentially distributed). 0 disables traps.
	TrapMeanInstrs int
	// Threads is the number of software threads multiplexed on the core;
	// at least 1.
	Threads int
	// ContextSwitchProb is the probability that a trap return resumes a
	// different thread (a scheduler decision). Ignored with one thread.
	ContextSwitchProb float64
	// Seed names the deterministic random stream for this executor.
	Seed string
}

// ExecStats counts what an Executor has produced.
type ExecStats struct {
	// Events is the number of BlockEvents emitted.
	Events uint64
	// Instrs is the total instructions across emitted events.
	Instrs uint64
	// Traps is the number of OS traps taken.
	Traps uint64
	// ContextSwitches is the number of trap returns that resumed a
	// different thread.
	ContextSwitches uint64
	// Transactions is the number of root dispatches.
	Transactions uint64
}

// noBlock marks a thread with no block to run: it awaits a transaction
// dispatch, or, for the kernel thread, its trap has returned.
const noBlock int32 = -1

type threadState struct {
	stack []int32 // return points: table indices to resume at
	cur   int32   // table index of the next block, or noBlock
}

// Executor walks a Program emitting isa.BlockEvents. It is an infinite
// isa.EventSource and isa.BatchSource: Next always succeeds, and NextBatch
// always fills its buffer. One Executor models one core.
//
// The walk reads only the program's flat block table: each thread is an
// int32 cursor into it plus an int32 return stack, and every successor,
// return point, root and trap handler is a table index. Executors never
// write the program, so any number of them, on any goroutines, share one.
type Executor struct {
	blocks []BasicBlock // the program table
	prog   *Program
	cfg    ExecConfig
	rng    xrand.Rand

	rootZipf *xrand.ZipfTable
	roots    []int32 // entry index of each of cfg.Roots
	traps    []int32 // entry index of each of cfg.TrapHandlers
	threads  []threadState
	active   int

	inTrap        bool
	trapThread    threadState // kernel-mode execution state
	trapCountdown int64

	stats ExecStats
}

// NewExecutor creates an executor for prog. It panics if the configuration
// is invalid (no roots, or trap settings without handlers).
func NewExecutor(prog *Program, cfg ExecConfig) *Executor {
	if len(cfg.Roots) == 0 {
		panic("cfg: executor needs at least one root function")
	}
	if cfg.TrapMeanInstrs > 0 && len(cfg.TrapHandlers) == 0 {
		panic("cfg: TrapMeanInstrs set without TrapHandlers")
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	x := &Executor{
		blocks:   prog.Blocks,
		prog:     prog,
		cfg:      cfg,
		rootZipf: xrand.NewZipfTable(len(cfg.Roots), cfg.RootSkew),
		roots:    entries(prog, cfg.Roots),
		traps:    entries(prog, cfg.TrapHandlers),
		threads:  make([]threadState, cfg.Threads),
	}
	x.Reset()
	return x
}

// entries maps function IDs to the table indices of their first blocks.
func entries(prog *Program, ids []FuncID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = prog.Func(id).First
	}
	return out
}

// Stats returns a copy of the execution counters.
func (x *Executor) Stats() ExecStats { return x.stats }

// Reset rewinds the executor to its freshly constructed state: the same
// seed, thread states, and trap countdown NewExecutor(prog, cfg) would
// produce, so the event stream replays identically. Call stacks keep
// their capacity, making repeated simulation runs allocation-free once
// the deepest call chain has been seen.
func (x *Executor) Reset() {
	x.rng.SeedFromString("exec/" + x.cfg.Seed)
	for i := range x.threads {
		t := &x.threads[i]
		t.stack = t.stack[:0]
		t.cur = noBlock
	}
	x.active = 0
	x.inTrap = false
	x.trapThread.stack = x.trapThread.stack[:0]
	x.trapThread.cur = noBlock
	x.stats = ExecStats{}
	x.resetTrapCountdown()
}

func (x *Executor) resetTrapCountdown() {
	if x.cfg.TrapMeanInstrs <= 0 {
		x.trapCountdown = math.MaxInt64
		return
	}
	u := x.rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := -float64(x.cfg.TrapMeanInstrs) * math.Log(u)
	if d < 1 {
		d = 1
	}
	x.trapCountdown = int64(d)
}

// dispatchRoot picks the next transaction driver for a thread and returns
// the table index of its entry.
func (x *Executor) dispatchRoot() int32 {
	x.stats.Transactions++
	return x.roots[x.rootZipf.Sample(&x.rng)]
}

// Next implements isa.EventSource; it never returns ok == false.
func (x *Executor) Next() (isa.BlockEvent, bool) {
	var ev [1]isa.BlockEvent
	x.NextBatch(ev[:])
	return ev[0], true
}

// NextBatch implements isa.BatchSource: one dynamic dispatch fills a
// whole buffer, and events are written in place. The executor is
// infinite, so dst is always filled completely.
func (x *Executor) NextBatch(dst []isa.BlockEvent) int {
	for i := range dst {
		if x.inTrap {
			x.stepTrap(&dst[i])
		} else {
			x.stepThread(&dst[i])
		}
	}
	return len(dst)
}

// stepThread executes one basic block of the active thread into *ev.
func (x *Executor) stepThread(ev *isa.BlockEvent) {
	t := &x.threads[x.active]
	if t.cur == noBlock {
		t.cur = x.dispatchRoot()
	}
	next := x.step(ev, t.cur, &t.stack, true)

	x.stats.Events++
	x.stats.Instrs += uint64(ev.Instrs)
	x.trapCountdown -= int64(ev.Instrs)

	if x.trapCountdown <= 0 && x.cfg.TrapMeanInstrs > 0 {
		// Asynchronous trap at the block boundary: override the emitted
		// terminator with a trap redirect (the flush discards the natural
		// transfer from the fetch unit's perspective), and stash the
		// natural continuation as the thread's resume point.
		handler := x.traps[x.rng.Intn(len(x.traps))]
		ev.Kind = isa.CTTrap
		ev.Taken = true
		ev.Target = x.blocks[handler].PC
		t.cur = next
		x.inTrap = true
		x.trapThread.stack = x.trapThread.stack[:0] // keep capacity across traps
		x.trapThread.cur = handler
		x.stats.Traps++
		x.resetTrapCountdown()
		return
	}
	t.cur = next
}

// stepTrap executes one basic block of kernel trap code into *ev.
func (x *Executor) stepTrap(ev *isa.BlockEvent) {
	next := x.step(ev, x.trapThread.cur, &x.trapThread.stack, false)
	x.stats.Events++
	x.stats.Instrs += uint64(ev.Instrs)

	if next == noBlock {
		// Kernel stack emptied: trap return, possibly to another thread.
		x.inTrap = false
		if x.cfg.Threads > 1 && x.rng.Bool(x.cfg.ContextSwitchProb) {
			prev := x.active
			x.active = x.rng.Intn(len(x.threads))
			if x.active != prev {
				x.stats.ContextSwitches++
			}
		}
		t := &x.threads[x.active]
		if t.cur == noBlock {
			t.cur = x.dispatchRoot()
		}
		ev.Kind = isa.CTTrapReturn
		ev.Taken = true
		ev.Target = x.blocks[t.cur].PC
		return
	}
	x.trapThread.cur = next
}

// step executes the block at table index cur into *ev, resolving its
// terminator with the executor's RNG, and returns the index of the next
// block. For CTReturn with an empty stack: in user mode (dispatch true)
// the dispatcher selects the next transaction root; in kernel mode it
// returns noBlock to signal trap completion (the caller rewrites the
// event's target).
func (x *Executor) step(ev *isa.BlockEvent, cur int32, stack *[]int32, dispatch bool) int32 {
	b := &x.blocks[cur]
	*ev = isa.BlockEvent{
		PC:          b.PC,
		Instrs:      int(b.Instrs),
		Kind:        b.Kind,
		Serializing: b.Serializing,
	}

	switch b.Kind {
	case isa.CTFallthrough:
		return cur + 1

	case isa.CTBranch:
		ev.InnerLoop = b.InnerLoop
		ev.Target = b.Target
		if x.rng.Bool(b.TakenProb) {
			ev.Taken = true
			return b.Succ
		}
		return cur + 1

	case isa.CTJump:
		ev.Taken = true
		ev.Target = b.Target
		return b.Succ

	case isa.CTCall:
		next, target := b.Succ, b.Target
		if b.Indirect {
			site := &x.prog.Calls[b.Succ]
			f := x.prog.Func(site.Callees[site.Zipf.Sample(&x.rng)])
			next, target = f.First, f.Entry
		}
		ev.Taken = true
		ev.Target = target
		*stack = append(*stack, cur+1)
		return next

	case isa.CTReturn:
		ev.Taken = true
		if n := len(*stack); n > 0 {
			r := (*stack)[n-1]
			*stack = (*stack)[:n-1]
			ev.Target = x.blocks[r].PC
			return r
		}
		if dispatch {
			next := x.dispatchRoot()
			ev.Target = x.blocks[next].PC
			return next
		}
		// Kernel return with empty stack: caller handles trap return.
		return noBlock

	default:
		panic(fmt.Sprintf("cfg: unexpected terminator kind %v", b.Kind))
	}
}
