package prefetch

import "tifs/internal/isa"

// bufEntry is one prefetched block awaiting its fetch.
type bufEntry struct {
	block   isa.Block
	ready   uint64
	lastUse uint64
}

// buffer is the fully-associative prefetch buffer FDIP and the
// discontinuity predictor fill: it sends each prefetch to memory once,
// evicts the least recently used entry when full, and hands a block to
// the L1 on a Probe hit. Probe removes the entry the fetch uses, so every
// entry evicted is a discard. It implements Prefetcher's Probe and Stats
// for the prefetchers that embed it.
type buffer struct {
	mem  Memory
	l1   L1View
	core int

	entries  []bufEntry
	capacity int
	stats    Stats
}

// reset empties the buffer and its counters for a run at the given
// capacity, keeping the entries' storage when it is large enough.
func (p *buffer) reset(capacity int) {
	if cap(p.entries) < capacity {
		p.entries = make([]bufEntry, 0, capacity)
	} else {
		p.entries = p.entries[:0]
	}
	p.capacity = capacity
	p.stats = Stats{}
}

// prefetchBlock prefetches b unless it is already in the L1 or the buffer.
func (p *buffer) prefetchBlock(b isa.Block, now uint64) {
	if p.l1 != nil && p.l1.ContainsBlock(b) {
		return
	}
	for i := range p.entries {
		if p.entries[i].block == b {
			return
		}
	}
	ready := p.mem.Prefetch(p.core, b, now)
	p.stats.Issued++
	e := bufEntry{block: b, ready: ready, lastUse: now}
	if len(p.entries) < p.capacity {
		p.entries = append(p.entries, e)
		return
	}
	victim := 0
	for i := 1; i < len(p.entries); i++ {
		if p.entries[i].lastUse < p.entries[victim].lastUse {
			victim = i
		}
	}
	p.stats.Discards++
	p.entries[victim] = e
}

// Probe implements Prefetcher.
func (p *buffer) Probe(b isa.Block, now uint64) (uint64, bool) {
	for i := range p.entries {
		if p.entries[i].block == b {
			ready := p.entries[i].ready
			p.entries = append(p.entries[:i], p.entries[i+1:]...)
			if ready <= now {
				p.stats.HitsTimely++
			} else {
				p.stats.HitsLate++
			}
			return ready, true
		}
	}
	return 0, false
}

// Stats implements Prefetcher.
func (p *buffer) Stats() Stats { return p.stats }
