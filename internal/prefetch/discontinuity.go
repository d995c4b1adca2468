package prefetch

import "tifs/internal/isa"

// DiscontinuityConfig parameterizes the discontinuity predictor.
type DiscontinuityConfig struct {
	// TableEntries sizes the direct-mapped discontinuity table
	// (default 4096 entries).
	TableEntries int
	// BufferBlocks is the prefetch buffer capacity (default 32).
	BufferBlocks int
	// Depth is how many sequential blocks to prefetch at the target of a
	// predicted discontinuity (default 2, mirroring next-line).
	Depth int
}

func (c DiscontinuityConfig) withDefaults() DiscontinuityConfig {
	if c.TableEntries == 0 {
		c.TableEntries = 4096
	}
	if c.BufferBlocks == 0 {
		c.BufferBlocks = 32
	}
	if c.Depth == 0 {
		c.Depth = 2
	}
	return c
}

type discEntry struct {
	from  isa.Block
	to    isa.Block
	valid bool
}

// Discontinuity models the discontinuity predictor of Spracklen et al.
// (HPCA 2005; the paper's Section 7): a table maps an instruction block
// to the discontinuous successor block last fetched after it. On every
// demand fetch the table is consulted and, on a hit, the discontinuous
// target and its next-line successors are prefetched. It bridges exactly
// one discontinuity, which is its documented limitation.
//
// It is included as an extra baseline beyond the paper's comparison set.
type Discontinuity struct {
	cfg  DiscontinuityConfig
	mem  Memory
	l1   L1View
	core int

	table  []discEntry
	buffer []fdipEntry

	prevBlock isa.Block
	havePrev  bool

	stats Stats
}

// NewDiscontinuity creates a discontinuity prefetcher for one core.
func NewDiscontinuity(cfg DiscontinuityConfig, core int, mem Memory, l1 L1View) *Discontinuity {
	cfg = cfg.withDefaults()
	return &Discontinuity{
		cfg:    cfg,
		mem:    mem,
		l1:     l1,
		core:   core,
		table:  make([]discEntry, cfg.TableEntries),
		buffer: make([]fdipEntry, 0, cfg.BufferBlocks),
	}
}

// Reset restores the engine to the state NewDiscontinuity would produce
// for the same core/memory/L1 binding, reusing its table and buffer.
func (d *Discontinuity) Reset(cfg DiscontinuityConfig) {
	cfg = cfg.withDefaults()
	if len(d.table) == cfg.TableEntries {
		clear(d.table)
	} else {
		d.table = make([]discEntry, cfg.TableEntries)
	}
	if cap(d.buffer) < cfg.BufferBlocks {
		d.buffer = make([]fdipEntry, 0, cfg.BufferBlocks)
	} else {
		d.buffer = d.buffer[:0]
	}
	d.cfg = cfg
	d.prevBlock = 0
	d.havePrev = false
	d.stats = Stats{}
}

// Name implements Prefetcher.
func (d *Discontinuity) Name() string { return "discontinuity" }

// OnWindow implements Prefetcher.
func (d *Discontinuity) OnWindow([]isa.BlockEvent, uint64) {}

func (d *Discontinuity) slot(b isa.Block) *discEntry {
	return &d.table[uint64(b)%uint64(len(d.table))]
}

// OnFetchBlock implements Prefetcher: train on observed discontinuities
// and prefetch through predicted ones.
func (d *Discontinuity) OnFetchBlock(b isa.Block, outcome FetchOutcome, now uint64) {
	// Train: a non-sequential transition from the previous fetch block
	// records a discontinuity.
	if d.havePrev && b != d.prevBlock && b != d.prevBlock+1 {
		e := d.slot(d.prevBlock)
		e.from, e.to, e.valid = d.prevBlock, b, true
	}
	d.prevBlock = b
	d.havePrev = true

	// Predict: prefetch the discontinuous path (plus next-line depth).
	if e := d.slot(b); e.valid && e.from == b {
		for i := 0; i <= d.cfg.Depth; i++ {
			d.prefetchBlock(e.to+isa.Block(i), now)
		}
	}
}

func (d *Discontinuity) prefetchBlock(b isa.Block, now uint64) {
	if d.l1 != nil && d.l1.ContainsBlock(b) {
		return
	}
	for i := range d.buffer {
		if d.buffer[i].block == b {
			return
		}
	}
	ready := d.mem.Prefetch(d.core, b, now)
	d.stats.Issued++
	e := fdipEntry{block: b, ready: ready, lastUse: now}
	if len(d.buffer) < d.cfg.BufferBlocks {
		d.buffer = append(d.buffer, e)
		return
	}
	victim := 0
	for i := 1; i < len(d.buffer); i++ {
		if d.buffer[i].lastUse < d.buffer[victim].lastUse {
			victim = i
		}
	}
	d.stats.Discards++
	d.buffer[victim] = e
}

// OnEvent implements Prefetcher.
func (d *Discontinuity) OnEvent(isa.BlockEvent, uint64) {}

// Probe implements Prefetcher.
func (d *Discontinuity) Probe(b isa.Block, now uint64) (uint64, bool) {
	for i := range d.buffer {
		if d.buffer[i].block == b {
			ready := d.buffer[i].ready
			d.buffer = append(d.buffer[:i], d.buffer[i+1:]...)
			if ready <= now {
				d.stats.HitsTimely++
			} else {
				d.stats.HitsLate++
			}
			return ready, true
		}
	}
	return 0, false
}

// Stats implements Prefetcher.
func (d *Discontinuity) Stats() Stats { return d.stats }
