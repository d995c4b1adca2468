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
	"math"

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
	// (0 = unlimited), so an infinite executor needs no wrapper.
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

// nlBuckets is the number of hash chains indexing the next-line buffer;
// a block's chain is its low 8 block-number bits.
const nlBuckets = 256

// nlBuffer is the fetch unit's next-line prefetch buffer: a set of at
// most nlCapacity blocks, each with the cycle its fill arrives. An
// insert into a full buffer evicts the earliest-inserted live entry.
// Entries live in slots 1..nlCapacity; slot 0 is the nil link of the
// hash chains and the sentinel of the insertion-order list, so the zero
// value is an empty buffer. Each entry sits on its block's hash chain
// (lookup) and on the insertion-order list (victim choice), which makes
// find, remove and insert O(1): with 64 entries over 256 chains a chain
// walk is almost always zero or one step.
type nlBuffer struct {
	block [nlCapacity + 1]isa.Block
	ready [nlCapacity + 1]uint64
	// bucket holds each chain's first slot and chain the next slot in
	// the same chain; removed slots are stacked on free through chain.
	bucket [nlBuckets]uint8
	chain  [nlCapacity + 1]uint8
	free   uint8
	// older and newer link the live slots in insertion order through
	// slot 0: newer[0] is the oldest entry, older[0] the newest.
	older, newer [nlCapacity + 1]uint8
	// live counts entries; used counts slots handed out since reset.
	live, used uint8
}

// find returns the slot holding b, or 0.
func (nl *nlBuffer) find(b isa.Block) uint8 {
	for s := nl.bucket[uint8(b)]; s != 0; s = nl.chain[s] {
		if nl.block[s] == b {
			return s
		}
	}
	return 0
}

// contains reports whether b is in the buffer.
func (nl *nlBuffer) contains(b isa.Block) bool { return nl.find(b) != 0 }

// take removes b and returns its ready cycle, reporting whether it was
// present.
func (nl *nlBuffer) take(b isa.Block) (uint64, bool) {
	s := nl.find(b)
	if s == 0 {
		return 0, false
	}
	ready := nl.ready[s]
	nl.remove(s)
	return ready, true
}

// remove unlinks live slot s from its chain and the order list and
// frees it.
func (nl *nlBuffer) remove(s uint8) {
	p := &nl.bucket[uint8(nl.block[s])]
	for *p != s {
		p = &nl.chain[*p]
	}
	*p = nl.chain[s]
	nl.newer[nl.older[s]] = nl.newer[s]
	nl.older[nl.newer[s]] = nl.older[s]
	nl.chain[s] = nl.free
	nl.free = s
	nl.live--
}

// insert adds b, which must be absent, evicting the earliest-inserted
// entry when the buffer is full. It returns the evicted block, if any.
func (nl *nlBuffer) insert(b isa.Block, ready uint64) (victim isa.Block, evicted bool) {
	if nl.live == nlCapacity {
		oldest := nl.newer[0]
		victim, evicted = nl.block[oldest], true
		nl.remove(oldest)
	}
	s := nl.free
	if s != 0 {
		nl.free = nl.chain[s]
	} else {
		nl.used++
		s = nl.used
	}
	nl.block[s] = b
	nl.ready[s] = ready
	nl.chain[s] = nl.bucket[uint8(b)]
	nl.bucket[uint8(b)] = s
	newest := nl.older[0]
	nl.newer[newest] = s
	nl.older[s] = newest
	nl.newer[s] = 0
	nl.older[0] = s
	nl.live++
	return victim, evicted
}

// nextOnly adapts a source without NextBatch to isa.BatchSource, one
// Next call per event.
type nextOnly struct{ src isa.EventSource }

// NextBatch implements isa.BatchSource.
func (n *nextOnly) NextBatch(dst []isa.BlockEvent) int {
	for i := range dst {
		ev, ok := n.src.Next()
		if !ok {
			return i
		}
		dst[i] = ev
	}
	return len(dst)
}

// Core is one simulated core bound to its event source, prefetcher, and
// the shared uncore.
type Core struct {
	ID  int
	cfg Config

	l1     *cache.Cache
	pred   *branch.Hybrid
	pf     prefetch.Prefetcher
	pfNone bool // fast path: skip prefetcher dispatch entirely
	un     *uncore.L2

	// src refills the fetch-target queue; a source without NextBatch is
	// wrapped in adapt. srcLeft counts the events still allowed from it
	// (the EventBudget, or unlimited) and drops to 0 once it runs dry.
	src     isa.BatchSource
	adapt   nextOnly
	srcLeft uint64

	// window is the fetch-target queue, consumed from head. Whenever
	// fewer than WindowEvents events remain, fillWindow moves them to
	// the front and tops the queue up to capacity in one batch.
	window []isa.BlockEvent
	head   int

	nl nlBuffer
	// nlLast is the block of the last nlIssue call. nlCovered reports
	// that the call left every block up to NextLineDepth after it in the
	// L1 or the next-line buffer; it stays false when the L1 has too few
	// sets for the memo to be exact (see nlIssue).
	nlLast    isa.Block
	nlCovered bool
	nlMemo    bool // l1.NumSets() > NextLineDepth

	execAcc float64 // fractional execution cycles
	execCPI float64 // hoisted 1/Width + BackendCPI (same expression tree)
	dataAcc float64 // fractional synthetic data-traffic blocks

	cycle uint64
	stats Stats
}

// New creates a core. The prefetcher may be nil (next-line only).
func New(id int, cfg Config, src isa.EventSource, pf prefetch.Prefetcher, un *uncore.L2) *Core {
	c := &Core{ID: id, un: un}
	c.Reset(cfg, src)
	c.SetPrefetcher(pf)
	return c
}

// bindSource attaches the event source and its budget (0 = unlimited).
func (c *Core) bindSource(src isa.EventSource, budget uint64) {
	c.adapt = nextOnly{src}
	c.src = &c.adapt
	if bs, ok := src.(isa.BatchSource); ok {
		c.src = bs
	}
	c.srcLeft = budget
	if budget == 0 {
		c.srcLeft = math.MaxUint64
	}
}

// Reset restores the core to the state New(id, cfg, src, nil, un) would
// produce with the core's existing id and uncore binding, reusing the L1
// ways, predictor tables, window, and next-line buffers so pooled
// simulation runs do not reallocate them. The caller attaches the
// prefetcher afterwards via SetPrefetcher, as after New.
func (c *Core) Reset(cfg Config, src isa.EventSource) {
	cfg = cfg.withDefaults()
	if c.l1 != nil && c.l1.Config() == cfg.L1I {
		c.l1.Reset()
	} else {
		c.l1 = cache.New(cfg.L1I)
	}
	if c.pred != nil && c.pred.Entries() == cfg.PredictorEntries {
		c.pred.Reset()
	} else {
		c.pred = branch.NewHybrid(cfg.PredictorEntries)
	}
	c.cfg = cfg
	c.bindSource(src, cfg.EventBudget)
	if cap(c.window) < 2*cfg.WindowEvents {
		c.window = make([]isa.BlockEvent, 0, 2*cfg.WindowEvents)
	} else {
		c.window = c.window[:0]
	}
	c.head = 0
	c.nl = nlBuffer{}
	c.nlLast, c.nlCovered = 0, false
	c.nlMemo = c.l1.NumSets() > cfg.NextLineDepth
	c.execAcc = 0
	c.execCPI = 1.0/float64(cfg.Width) + cfg.BackendCPI
	c.dataAcc = 0
	c.cycle = 0
	c.stats = Stats{}
	c.SetPrefetcher(nil)
}

// ContainsBlock implements prefetch.L1View.
func (c *Core) ContainsBlock(b isa.Block) bool { return c.l1.Contains(b) }

// Cycle returns the core-local clock.
func (c *Core) Cycle() uint64 { return c.cycle }

// Events returns how many events the core has executed.
func (c *Core) Events() uint64 { return c.stats.Events }

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

// fillWindow keeps at least WindowEvents events queued while the
// source lasts. When fewer remain, it moves them to the front of the
// queue and tops it up to capacity with one NextBatch call, so event
// generation costs one dynamic dispatch per refill rather than per
// event. Step shows OnWindow only the first WindowEvents queued events,
// however many more are buffered behind them.
func (c *Core) fillWindow() {
	if len(c.window)-c.head >= c.cfg.WindowEvents || c.srcLeft == 0 {
		return
	}
	n := copy(c.window, c.window[c.head:])
	c.head = 0
	want := cap(c.window) - n
	if uint64(want) > c.srcLeft {
		want = int(c.srcLeft)
	}
	got := c.src.NextBatch(c.window[n : n+want])
	c.window = c.window[:n+got]
	c.srcLeft -= uint64(got)
	if got < want {
		c.srcLeft = 0
	}
}

// nlIssue starts next-line prefetches for the NextLineDepth blocks after
// b that are in neither the L1 nor the next-line buffer, and records b
// in the memo. When the previous call, for block nlLast, left its blocks
// covered and b is 1 to NextLineDepth blocks past it, the blocks up to
// nlLast+NextLineDepth are still covered and only the ones past them are
// probed: between the two calls the fetch of b changed the L1 only in
// b's set, which with more sets than NextLineDepth holds none of them,
// and the next-line buffer only by taking b.
func (c *Core) nlIssue(b isa.Block, now uint64) {
	depth := isa.Block(c.cfg.NextLineDepth)
	d := isa.Block(1)
	if k := b - c.nlLast; c.nlCovered && k-1 < depth {
		d = depth - k + 1
	}
	covered := c.nlMemo
	for ; d <= depth; d++ {
		nb := b + d
		if c.l1.Contains(nb) || c.nl.contains(nb) {
			continue
		}
		ready := c.un.ReadBlock(c.ID, nb, now, uncore.TrafficNextLine)
		if victim, ok := c.nl.insert(nb, ready); ok && victim-b-1 < depth {
			covered = false // a full buffer evicted a block this call covers
		}
	}
	c.nlLast, c.nlCovered = b, covered
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
		return false
	}
	ev := &c.window[c.head]
	if !c.pfNone {
		end := min(c.head+c.cfg.WindowEvents, len(c.window))
		c.pf.OnWindow(c.window[c.head:end], c.cycle)
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
	// next-line cannot fetch timely (Sections 3.1, 7). The next-line memo
	// (nlLast, nlCovered) spares repeated work: a fetch of the block
	// fetched last skips the L1 access and nlIssue, and nlIssue probes
	// only blocks the previous call did not cover.
	first := ev.PC.Block()
	last := ev.LastPC().Block()
	for b := first; b <= last; b++ {
		c.stats.BlockFetches++
		if b == c.nlLast && c.nlCovered {
			// The last block fetched again: nothing has touched the L1 or
			// the next-line buffer since its fetch, so it hits and is
			// already the most recently used block of its set, and
			// nlIssue would find its blocks covered and change nothing.
			c.stats.L1Hits++
			if !c.pfNone {
				c.pf.OnFetchBlock(b, prefetch.FetchL1Hit, c.cycle)
			}
			continue
		}
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
				c.nl.take(b) // drop the superseded next-line copy
			} else if ready, ok := c.nl.take(b); ok {
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
		if c.pred.PredictUpdate(ev.LastPC(), ev.Taken) != ev.Taken {
			c.stats.BranchMispredicts++
			c.cycle += uint64(c.cfg.MispredictPenalty)
		}
	}

	if !c.pfNone {
		c.pf.OnEvent(*ev, c.cycle)
	}
	c.stats.Events++
	c.stats.Instrs += uint64(ev.Instrs)
	c.head++ // consume; compaction happens at the next refill
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
