package prefetch

import (
	"tifs/internal/branch"
	"tifs/internal/flathash"
	"tifs/internal/isa"
)

// FDIPConfig parameterizes fetch-directed instruction prefetching. The
// defaults follow the paper's tuned configuration (Section 6.5): run at
// most 96 instructions and 6 branches ahead of the fetch unit, with a
// fully-associative prefetch buffer.
type FDIPConfig struct {
	// MaxInstrs bounds run-ahead depth in instructions (default 96).
	MaxInstrs int
	// MaxBranches bounds run-ahead depth in conditional branches
	// (default 6).
	MaxBranches int
	// BufferBlocks is the fully-associative prefetch buffer capacity
	// (default 32 blocks, 2 KB — matched to the TIFS SVB for fairness).
	BufferBlocks int
	// PredictorEntries sizes the hybrid direction predictor (default the
	// paper's 16K).
	PredictorEntries int
	// ExploreRate bounds how many events exploration advances per fetch
	// step, modeling the predictor's one-or-two-predictions-per-cycle
	// bandwidth (Section 3's first fundamental flaw). Default 3.
	ExploreRate int
	// WrongPathBlocks is how many blocks are fetched down the wrong path
	// when a branch is mispredicted before exploration stops (pollution
	// and wasted bandwidth). Default 3.
	WrongPathBlocks int
}

func (c FDIPConfig) withDefaults() FDIPConfig {
	if c.MaxInstrs == 0 {
		c.MaxInstrs = 96
	}
	if c.MaxBranches == 0 {
		c.MaxBranches = 6
	}
	if c.BufferBlocks == 0 {
		c.BufferBlocks = 32
	}
	if c.PredictorEntries == 0 {
		c.PredictorEntries = 16 * 1024
	}
	if c.ExploreRate == 0 {
		c.ExploreRate = 4
	}
	if c.WrongPathBlocks == 0 {
		c.WrongPathBlocks = 3
	}
	return c
}

// fdipEntry is one prefetched block awaiting its fetch. Probe removes
// an entry when the fetch uses it, so every entry evicted from a full
// buffer is a discard.
type fdipEntry struct {
	block   isa.Block
	ready   uint64
	lastUse uint64
}

// FDIP models fetch-directed instruction prefetching (Reinman, Calder,
// Austin): the branch predictor explores the control flow ahead of the
// fetch unit and prefetches the instruction blocks on the predicted path.
// Exploration stops at the first mispredicted conditional branch,
// unpredictable indirect-call target, or trap — the lookahead limits TIFS
// is designed to escape (Sections 3 and 6.2).
type FDIP struct {
	cfg  FDIPConfig
	mem  Memory
	l1   L1View
	core int

	pred       *branch.Hybrid
	lastTarget flathash.Map // indirect call site -> last target

	buffer   []fdipEntry
	explored int // leading window events already explored
	blocked  int // events until a mispredicted branch resolves (0 = free)
	// trained is set when a retiring branch or call trains the predictor
	// and cleared once a walk has re-predicted the whole explored prefix.
	trained bool

	stats Stats
}

// NewFDIP creates an FDIP engine for one core.
func NewFDIP(cfg FDIPConfig, core int, mem Memory, l1 L1View) *FDIP {
	cfg = cfg.withDefaults()
	return &FDIP{
		cfg:    cfg,
		mem:    mem,
		l1:     l1,
		core:   core,
		pred:   branch.NewHybrid(cfg.PredictorEntries),
		buffer: make([]fdipEntry, 0, cfg.BufferBlocks),
	}
}

// Reset restores the engine to the state NewFDIP would produce for the
// same core/memory/L1 binding, reusing its tables so pooled simulation
// runs do not reallocate them.
func (f *FDIP) Reset(cfg FDIPConfig) {
	cfg = cfg.withDefaults()
	if f.pred.Entries() == cfg.PredictorEntries {
		f.pred.Reset()
	} else {
		f.pred = branch.NewHybrid(cfg.PredictorEntries)
	}
	f.lastTarget.Reset()
	if cap(f.buffer) < cfg.BufferBlocks {
		f.buffer = make([]fdipEntry, 0, cfg.BufferBlocks)
	} else {
		f.buffer = f.buffer[:0]
	}
	f.cfg = cfg
	f.explored = 0
	f.blocked = 0
	f.trained = false
	f.stats = Stats{}
}

// Name implements Prefetcher.
func (f *FDIP) Name() string { return "FDIP" }

// predictable reports whether FDIP correctly anticipates the transfer at
// the end of ev, consuming branch budget via the returned flag.
func (f *FDIP) predictable(ev isa.BlockEvent) (ok, conditional bool) {
	switch ev.Kind {
	case isa.CTFallthrough:
		return true, false
	case isa.CTBranch:
		return f.pred.Predict(ev.LastPC()) == ev.Taken, true
	case isa.CTJump:
		return true, false // static target, BTB-resident
	case isa.CTCall:
		last, seen := f.lastTarget.Get(uint64(ev.LastPC()))
		return seen && isa.Addr(last) == ev.Target, false
	case isa.CTReturn:
		return true, false // return-address stack
	default: // traps and trap returns are asynchronous redirects
		return false, false
	}
}

// OnWindow implements Prefetcher: explore the upcoming path within the
// instruction/branch budget and prefetch blocks absent from L1 and the
// buffer. A mispredicted branch discards the predicted path; exploration
// cannot restart until the branch resolves — i.e., until the fetch unit
// consumes it (the paper's Section 3.2 restart behaviour).
//
// Each step re-walks the explored prefix to sum the budget. Every event
// in it was predicted correctly by an earlier walk, and predictions
// change only when OnEvent trains, so while trained is clear the walk
// counts the prefix's budget without predicting it again.
func (f *FDIP) OnWindow(window []isa.BlockEvent, now uint64) {
	if f.explored > 0 {
		f.explored-- // the window advanced by one event
	}
	if f.blocked > 0 {
		f.blocked--
		return
	}
	instrs, branches, advanced := 0, 0, 0
	for i := 1; i < len(window); i++ {
		var ok, cond bool
		if i < f.explored && !f.trained {
			ok, cond = true, window[i-1].Kind == isa.CTBranch
		} else {
			if i >= f.explored {
				f.trained = false // the whole prefix is predicted again
			}
			ok, cond = f.predictable(window[i-1])
		}
		if !ok {
			// The predicted path diverges here: fetch a few wrong-path
			// blocks (pollution + wasted bandwidth), then stall until the
			// offending event is consumed and retrains the predictor.
			if i > f.explored {
				f.wrongPath(window[i-1], now)
			}
			f.blocked = i
			return
		}
		if cond {
			branches++
			if branches > f.cfg.MaxBranches {
				return
			}
		}
		instrs += window[i].Instrs
		if instrs > f.cfg.MaxInstrs {
			return
		}
		if i < f.explored {
			continue
		}
		if advanced >= f.cfg.ExploreRate {
			// Prediction bandwidth exhausted for this step.
			return
		}
		ev := &window[i]
		for b, last := ev.PC.Block(), ev.LastPC().Block(); b <= last; b++ {
			f.prefetchBlock(b, now)
		}
		f.explored = i + 1
		advanced++
	}
	f.trained = false
}

// wrongPath fetches blocks down the not-taken (or spuriously-taken) path
// of a mispredicted branch; they pollute the buffer and waste bandwidth.
func (f *FDIP) wrongPath(ev isa.BlockEvent, now uint64) {
	var start isa.Addr
	switch ev.Kind {
	case isa.CTBranch:
		// The predictor chose the opposite of the actual outcome.
		if ev.Taken {
			start = ev.FallthroughPC()
		} else {
			start = ev.Target
		}
	case isa.CTCall:
		if last, seen := f.lastTarget.Get(uint64(ev.LastPC())); seen && isa.Addr(last) != ev.Target {
			start = isa.Addr(last)
		} else {
			return // no predicted target: nothing was fetched
		}
	default:
		return // traps produce no predicted path
	}
	b := start.Block()
	for i := 0; i < f.cfg.WrongPathBlocks; i++ {
		f.prefetchBlock(b+isa.Block(i), now)
	}
}

// prefetchBlock issues a prefetch unless the block is already in L1 or
// the buffer.
func (f *FDIP) prefetchBlock(b isa.Block, now uint64) {
	if f.l1 != nil && f.l1.ContainsBlock(b) {
		return
	}
	for i := range f.buffer {
		if f.buffer[i].block == b {
			return
		}
	}
	ready := f.mem.Prefetch(f.core, b, now)
	f.stats.Issued++
	e := fdipEntry{block: b, ready: ready, lastUse: now}
	if len(f.buffer) < f.cfg.BufferBlocks {
		f.buffer = append(f.buffer, e)
		return
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(f.buffer); i++ {
		if f.buffer[i].lastUse < f.buffer[victim].lastUse {
			victim = i
		}
	}
	f.stats.Discards++
	f.buffer[victim] = e
}

// OnFetchBlock implements Prefetcher.
func (f *FDIP) OnFetchBlock(isa.Block, FetchOutcome, uint64) {}

// OnEvent implements Prefetcher: retirement training.
func (f *FDIP) OnEvent(ev isa.BlockEvent, now uint64) {
	switch ev.Kind {
	case isa.CTBranch:
		f.pred.Update(ev.LastPC(), ev.Taken)
		f.trained = true
	case isa.CTCall:
		f.lastTarget.Put(uint64(ev.LastPC()), uint64(ev.Target))
		f.trained = true
	}
}

// Probe implements Prefetcher.
func (f *FDIP) Probe(b isa.Block, now uint64) (uint64, bool) {
	for i := range f.buffer {
		if f.buffer[i].block == b {
			ready := f.buffer[i].ready
			f.buffer = append(f.buffer[:i], f.buffer[i+1:]...)
			if ready <= now {
				f.stats.HitsTimely++
			} else {
				f.stats.HitsLate++
			}
			return ready, true
		}
	}
	return 0, false
}

// Stats implements Prefetcher.
func (f *FDIP) Stats() Stats { return f.stats }
