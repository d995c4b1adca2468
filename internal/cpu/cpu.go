// Package cpu models one core of the Table II CMP at the fidelity the
// study needs: a decoupled front end that fetches basic-block events
// through a 64 KB 2-way L1-I with a two-block next-line prefetcher, an
// attached (pluggable) instruction prefetcher, a hybrid branch predictor
// charging misprediction refills, and a width-4 back end whose
// data-side stalls are a calibrated per-instruction CPI adder (the
// README's "Substitutions" section explains the substitution).
//
// All prefetcher differentiation — timeliness, partial latency hiding,
// bank contention — flows through the cycle accounting here.
package cpu

import (
	"tifs/internal/branch"
	"tifs/internal/cache"
	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/uncore"
)

// Config parameterizes a core; zero values select Table II.
type Config struct {
	// L1I is the instruction cache geometry (default 64 KB 2-way).
	L1I cache.Config
	// Width is dispatch/retire width in instructions per cycle
	// (default 4).
	Width int
	// NextLineDepth is how many blocks ahead the fetch unit's next-line
	// prefetcher runs (default 2).
	NextLineDepth int
	// MispredictPenalty is the pipeline refill cost of a conditional
	// branch misprediction in cycles (default 12).
	MispredictPenalty int
	// SerializePenalty is the ROB-drain cost of serializing events
	// (traps, synchronization) in cycles (default 24).
	SerializePenalty int
	// OverlapCycles is the portion of each fetch-miss stall hidden by the
	// decoupled front end and pre-dispatch queue (default 8). Serializing
	// events get no overlap: their miss latency is fully exposed
	// (Section 3.1).
	OverlapCycles int
	// WindowEvents is the fetch-target-queue depth exposed to run-ahead
	// prefetchers (default 48 events).
	WindowEvents int
	// PredictorEntries sizes the core's hybrid branch predictor
	// (default 16K).
	PredictorEntries int
	// EventBudget bounds how many events the core pulls from its source
	// (0 = unlimited). It replaces wrapping infinite executors in an
	// isa.Limit, saving one interface dispatch per event on the hot path.
	EventBudget uint64
	// BackendCPI is the calibrated per-instruction back-end stall adder.
	BackendCPI float64
	// DataBlocksPer1kInstr is the synthetic data-side L2 traffic rate
	// (ledger only; default 40).
	DataBlocksPer1kInstr float64
}

func (c Config) withDefaults() Config {
	if c.L1I.SizeBytes == 0 {
		c.L1I = cache.Config{SizeBytes: 64 * 1024, Assoc: 2}
	}
	if c.Width == 0 {
		c.Width = 4
	}
	if c.NextLineDepth == 0 {
		c.NextLineDepth = 2
	}
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 12
	}
	if c.SerializePenalty == 0 {
		c.SerializePenalty = 24
	}
	if c.OverlapCycles == 0 {
		c.OverlapCycles = 8
	}
	if c.WindowEvents == 0 {
		c.WindowEvents = 48
	}
	if c.PredictorEntries == 0 {
		c.PredictorEntries = 16 * 1024
	}
	if c.DataBlocksPer1kInstr == 0 {
		c.DataBlocksPer1kInstr = 40
	}
	return c
}

// Stats are one core's execution counters.
type Stats struct {
	// Cycles is the core-local clock after the run.
	Cycles uint64
	// Instrs and Events count retired work.
	Instrs, Events uint64
	// BlockFetches counts demand block accesses; the outcome counters
	// partition them.
	BlockFetches, L1Hits, NextLineHits, PrefetchHits, Misses uint64
	// NextLineLate counts misses that were in-flight next-line blocks
	// (a subset of Misses).
	NextLineLate uint64
	// FetchStallCycles is exposed instruction-fetch stall time — the
	// paper's bottleneck metric. StallNextLine, StallPrefetch, and
	// StallMiss attribute it to in-flight next-line hits, in-flight
	// prefetcher hits, and demand misses respectively.
	FetchStallCycles                        uint64
	StallNextLine, StallPrefetch, StallMiss uint64
	// BranchMispredicts counts conditional mispredictions.
	BranchMispredicts, Branches uint64
	// Serializations counts ROB-drain events.
	Serializations uint64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// FetchStallShare returns the fraction of cycles lost to instruction
// fetch stalls.
func (s Stats) FetchStallShare() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FetchStallCycles) / float64(s.Cycles)
}

// nlCapacity is the next-line buffer size in blocks.
const nlCapacity = 64

// Core is one simulated core bound to its event source, prefetcher, and
// the shared uncore.
type Core struct {
	ID  int
	cfg Config

	l1        *cache.Cache
	pred      *branch.Hybrid
	pf        prefetch.Prefetcher
	pfNone    bool // fast path: skip prefetcher dispatch entirely
	un        *uncore.L2
	src       isa.EventSource
	batchSrc  isa.BatchSource // non-nil when src supports batch refills
	srcBudget uint64          // events still allowed from src (if budgeted)
	budgeted  bool

	// window is the fetch-target queue, consumed from head; events are
	// appended at the tail and the slice is compacted only when head
	// reaches WindowEvents, so the per-step cost is O(1) instead of an
	// O(window) memmove.
	window []isa.BlockEvent
	head   int

	// Next-line prefetch buffer in struct-of-arrays layout: membership
	// scans touch only the densely packed block numbers. nlCount is an
	// exact counting filter over low block bits: a zero bucket proves
	// absence, so the common no-match lookup skips the scan.
	nlBlock []isa.Block
	nlReady []uint64
	nlUsed  []uint64
	nlCount [256]uint8
	nlSeq   uint64

	execAcc float64 // fractional execution cycles
	execCPI float64 // hoisted 1/Width + BackendCPI (same expression tree)
	dataAcc float64 // fractional synthetic data-traffic blocks

	cycle uint64
	done  bool
	stats Stats
}

// New creates a core. The prefetcher may be nil (next-line only).
func New(id int, cfg Config, src isa.EventSource, pf prefetch.Prefetcher, un *uncore.L2) *Core {
	cfg = cfg.withDefaults()
	if pf == nil {
		pf = prefetch.None{}
	}
	c := &Core{
		ID:        id,
		cfg:       cfg,
		l1:        cache.New(cfg.L1I),
		pred:      branch.NewHybrid(cfg.PredictorEntries),
		un:        un,
		src:       src,
		srcBudget: cfg.EventBudget,
		budgeted:  cfg.EventBudget > 0,
		window:    make([]isa.BlockEvent, 0, 2*cfg.WindowEvents),
		nlBlock:   make([]isa.Block, 0, nlCapacity),
		nlReady:   make([]uint64, 0, nlCapacity),
		nlUsed:    make([]uint64, 0, nlCapacity),
		execCPI:   1.0/float64(cfg.Width) + cfg.BackendCPI,
	}
	c.batchSrc, _ = src.(isa.BatchSource)
	c.SetPrefetcher(pf)
	return c
}

// Reset restores the core to the state New(id, cfg, src, nil, un) would
// produce with the core's existing id and uncore binding, reusing the L1
// ways, predictor tables, window, and next-line buffers so pooled
// simulation runs do not reallocate them. The caller attaches the
// prefetcher afterwards via SetPrefetcher, as after New.
func (c *Core) Reset(cfg Config, src isa.EventSource) {
	cfg = cfg.withDefaults()
	if c.l1.Config() == cfg.L1I {
		c.l1.Reset()
	} else {
		c.l1 = cache.New(cfg.L1I)
	}
	if c.pred.Entries() == cfg.PredictorEntries {
		c.pred.Reset()
	} else {
		c.pred = branch.NewHybrid(cfg.PredictorEntries)
	}
	c.cfg = cfg
	c.src = src
	c.batchSrc, _ = src.(isa.BatchSource)
	c.srcBudget = cfg.EventBudget
	c.budgeted = cfg.EventBudget > 0
	if cap(c.window) < 2*cfg.WindowEvents {
		c.window = make([]isa.BlockEvent, 0, 2*cfg.WindowEvents)
	} else {
		c.window = c.window[:0]
	}
	c.head = 0
	c.nlBlock = c.nlBlock[:0]
	c.nlReady = c.nlReady[:0]
	c.nlUsed = c.nlUsed[:0]
	clear(c.nlCount[:])
	c.nlSeq = 0
	c.execAcc = 0
	c.execCPI = 1.0/float64(cfg.Width) + cfg.BackendCPI
	c.dataAcc = 0
	c.cycle = 0
	c.done = false
	c.stats = Stats{}
	c.SetPrefetcher(nil)
}

// ContainsBlock implements prefetch.L1View.
func (c *Core) ContainsBlock(b isa.Block) bool { return c.l1.Contains(b) }

// Cycle returns the core-local clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the event source is exhausted.
func (c *Core) Done() bool { return c.done }

// Stats returns a copy of the counters (Cycles kept current).
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycle
	return s
}

// Prefetcher returns the attached prefetch engine.
func (c *Core) Prefetcher() prefetch.Prefetcher { return c.pf }

// SetPrefetcher attaches a prefetch engine; engines that need the core's
// L1 view (FDIP) are constructed after the core, so attachment is a
// separate step. Must be called before the first Step.
func (c *Core) SetPrefetcher(pf prefetch.Prefetcher) {
	if pf == nil {
		pf = prefetch.None{}
	}
	c.pf = pf
	_, c.pfNone = pf.(prefetch.None)
}

// fillWindow tops up the fetch-target queue, compacting the consumed
// prefix only when it has grown to a full window's worth of slots.
//
// With no prefetcher attached nothing observes the window contents, so
// the queue refills lazily in full batches through isa.BatchSource when
// available: one dynamic dispatch per window instead of per event, with
// events written in place. Prefetchers get the original per-event refill
// so OnWindow always sees a full lookahead window.
func (c *Core) fillWindow() {
	if c.head >= c.cfg.WindowEvents {
		n := copy(c.window, c.window[c.head:])
		c.window = c.window[:n]
		c.head = 0
	}
	if c.pfNone && c.batchSrc != nil {
		if c.head < len(c.window) {
			return // still events queued; nobody needs a full window
		}
		want := c.cfg.WindowEvents
		if c.budgeted {
			if c.srcBudget == 0 {
				return
			}
			if uint64(want) > c.srcBudget {
				want = int(c.srcBudget)
			}
		}
		base := len(c.window)
		c.window = c.window[:base+want]
		n := c.batchSrc.NextBatch(c.window[base:])
		c.window = c.window[:base+n]
		if c.budgeted {
			c.srcBudget -= uint64(n)
		}
		if n < want {
			c.srcBudget = 0
			c.budgeted = true
		}
		return
	}
	for len(c.window)-c.head < c.cfg.WindowEvents {
		if c.budgeted {
			if c.srcBudget == 0 {
				return
			}
			c.srcBudget--
		}
		ev, ok := c.src.Next()
		if !ok {
			c.srcBudget = 0
			return
		}
		c.window = append(c.window, ev)
	}
}

// nlFind returns the buffer index holding b, or -1. It scans backwards:
// probed blocks are almost always the ones appended moments ago, so the
// match sits near the tail and the scan is a handful of iterations.
func (c *Core) nlFind(b isa.Block) int {
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

// nlRemove deletes entry i (order is irrelevant; replacement is by age
// stamp, so swap-delete is safe).
func (c *Core) nlRemove(i int) {
	c.nlCount[uint64(c.nlBlock[i])&255]--
	last := len(c.nlBlock) - 1
	c.nlBlock[i] = c.nlBlock[last]
	c.nlReady[i] = c.nlReady[last]
	c.nlUsed[i] = c.nlUsed[last]
	c.nlBlock = c.nlBlock[:last]
	c.nlReady = c.nlReady[:last]
	c.nlUsed = c.nlUsed[:last]
}

// nlDrop removes a stale next-line copy superseded by a prefetcher hit.
func (c *Core) nlDrop(b isa.Block) {
	if i := c.nlFind(b); i >= 0 {
		c.nlRemove(i)
	}
}

// nlProbe checks the next-line buffer, consuming on hit.
func (c *Core) nlProbe(b isa.Block) (uint64, bool) {
	i := c.nlFind(b)
	if i < 0 {
		return 0, false
	}
	ready := c.nlReady[i]
	c.nlRemove(i)
	return ready, true
}

// nlIssue starts next-line prefetches for the blocks after b.
func (c *Core) nlIssue(b isa.Block, now uint64) {
	for d := 1; d <= c.cfg.NextLineDepth; d++ {
		nb := b + isa.Block(d)
		if c.l1.Contains(nb) || c.nlFind(nb) >= 0 {
			continue
		}
		ready := c.un.ReadBlock(c.ID, nb, now, uncore.TrafficNextLine)
		c.nlSeq++
		c.nlCount[uint64(nb)&255]++
		if len(c.nlBlock) < nlCapacity {
			c.nlBlock = append(c.nlBlock, nb)
			c.nlReady = append(c.nlReady, ready)
			c.nlUsed = append(c.nlUsed, c.nlSeq)
			continue
		}
		oldest := 0
		for i := 1; i < len(c.nlUsed); i++ {
			if c.nlUsed[i] < c.nlUsed[oldest] {
				oldest = i
			}
		}
		c.nlCount[uint64(c.nlBlock[oldest])&255]--
		c.nlBlock[oldest] = nb
		c.nlReady[oldest] = ready
		c.nlUsed[oldest] = c.nlSeq
	}
}

// stall advances the clock by the exposed portion of a fetch delay and
// attributes it to the given counter.
func (c *Core) stall(ready uint64, serializing bool, attr *uint64) {
	if ready <= c.cycle {
		return
	}
	wait := ready - c.cycle
	if !serializing {
		overlap := uint64(c.cfg.OverlapCycles)
		if wait <= overlap {
			return
		}
		wait -= overlap
	}
	c.cycle += wait
	c.stats.FetchStallCycles += wait
	*attr += wait
}

// Step executes one basic-block event and returns false when the source
// is exhausted.
func (c *Core) Step() bool {
	c.fillWindow()
	if c.head >= len(c.window) {
		c.done = true
		return false
	}
	ev := &c.window[c.head]
	if !c.pfNone {
		c.pf.OnWindow(c.window[c.head:], c.cycle)
	}

	if ev.Serializing {
		c.stats.Serializations++
		c.cycle += uint64(c.cfg.SerializePenalty)
	}

	// Fetch every cache block the basic block covers. Service order on an
	// L1 miss: the attached prefetcher's buffer first (a timely streamed
	// copy beats an in-flight next-line one), then the next-line buffer.
	// A next-line block still in flight is architecturally an L1 miss
	// with a merged MSHR: it stalls for the residual latency and is
	// reported as a miss so TIFS logs it — this is how temporal streaming
	// comes to cover the sequential blocks after a discontinuity that
	// next-line cannot fetch timely (Sections 3.1, 7).
	first := ev.PC.Block()
	last := ev.LastPC().Block()
	for b := first; b <= last; b++ {
		c.stats.BlockFetches++
		var outcome prefetch.FetchOutcome
		switch {
		case c.l1.Access(b):
			outcome = prefetch.FetchL1Hit
			c.stats.L1Hits++
		default:
			if ready, ok := c.probePf(b); ok {
				outcome = prefetch.FetchPrefetchHit
				c.stats.PrefetchHits++
				c.stall(ready, ev.Serializing, &c.stats.StallPrefetch)
				c.nlDrop(b)
			} else if ready, ok := c.nlProbe(b); ok {
				if ready <= c.cycle {
					// Arrived in time: counted as an L1 hit (Section 6.1).
					outcome = prefetch.FetchNextLineHit
					c.stats.NextLineHits++
				} else {
					outcome = prefetch.FetchMiss
					c.stats.Misses++
					c.stats.NextLineLate++
					c.stall(ready, ev.Serializing, &c.stats.StallNextLine)
				}
			} else {
				outcome = prefetch.FetchMiss
				c.stats.Misses++
				ready := c.un.ReadBlock(c.ID, b, c.cycle, uncore.TrafficFetch)
				c.stall(ready, ev.Serializing, &c.stats.StallMiss)
			}
			c.l1.Fill(b)
		}
		if !c.pfNone {
			c.pf.OnFetchBlock(b, outcome, c.cycle)
		}
		c.nlIssue(b, c.cycle)
	}

	// Execute: width-limited dispatch plus the calibrated back-end adder.
	c.execAcc += float64(ev.Instrs) * c.execCPI
	if c.execAcc >= 1 {
		whole := uint64(c.execAcc)
		c.cycle += whole
		c.execAcc -= float64(whole)
	}

	// Synthetic data-side L2 traffic (ledger only).
	c.dataAcc += float64(ev.Instrs) * c.cfg.DataBlocksPer1kInstr / 1000
	if c.dataAcc >= 1 {
		whole := uint64(c.dataAcc)
		c.un.AddDataTraffic(whole)
		c.dataAcc -= float64(whole)
	}

	// Resolve the terminator.
	if ev.Kind.IsConditional() {
		c.stats.Branches++
		if c.pred.Predict(ev.LastPC()) != ev.Taken {
			c.stats.BranchMispredicts++
			c.cycle += uint64(c.cfg.MispredictPenalty)
		}
		c.pred.Update(ev.LastPC(), ev.Taken)
	}

	if !c.pfNone {
		c.pf.OnEvent(*ev, c.cycle)
	}
	c.stats.Events++
	c.stats.Instrs += uint64(ev.Instrs)
	c.head++ // consume; compaction is amortized in fillWindow
	return true
}

// probePf asks the attached prefetcher for b, skipping the interface
// dispatch entirely on the next-line-only baseline.
func (c *Core) probePf(b isa.Block) (uint64, bool) {
	if c.pfNone {
		return 0, false
	}
	return c.pf.Probe(b, c.cycle)
}
