// Package branch implements the front-end branch prediction machinery of
// Table II: a hybrid predictor combining a 16K-entry gShare with a
// 16K-entry bimodal table under a selector, which a fetch-directed
// prefetcher (FDIP, Reinman et al.) uses to explore control flow ahead of
// the fetch unit. FDIP assumes a perfect branch target buffer and
// return-address stack, so neither is modelled.
//
// Prediction quality is what limits FDIP's lookahead in the paper
// (Sections 3.2 and 6.2); TIFS itself uses none of this machinery.
package branch

import "tifs/internal/isa"

// counter is a 2-bit saturating counter; >= 2 predicts taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) inc() counter {
	if c < 3 {
		return c + 1
	}
	return c
}

func (c counter) dec() counter {
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal creates a bimodal predictor with the given number of entries
// (must be a power of two). Counters initialize to weakly taken.
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: entries must be a positive power of two")
	}
	b := &Bimodal{table: make([]counter, entries), mask: uint64(entries - 1)}
	b.Reset()
	return b
}

// Reset restores every counter to the weakly-taken initial state.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 2
	}
}

func (b *Bimodal) index(pc isa.Addr) uint64 {
	return (uint64(pc) >> 2) & b.mask
}

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc isa.Addr) bool {
	return b.table[b.index(pc)].taken()
}

// Update trains the entry for pc with the resolved direction.
func (b *Bimodal) Update(pc isa.Addr, taken bool) {
	i := b.index(pc)
	if taken {
		b.table[i] = b.table[i].inc()
	} else {
		b.table[i] = b.table[i].dec()
	}
}

// GShare is a global-history predictor: the PC is XORed with a shift
// register of recent branch outcomes to index the counter table.
type GShare struct {
	table   []counter
	mask    uint64
	history uint64
	bits    uint
}

// NewGShare creates a gShare predictor with the given number of entries
// (power of two); history length is log2(entries).
func NewGShare(entries int) *GShare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("branch: entries must be a positive power of two")
	}
	bits := uint(0)
	for 1<<bits < entries {
		bits++
	}
	g := &GShare{table: make([]counter, entries), mask: uint64(entries - 1), bits: bits}
	g.Reset()
	return g
}

// Reset restores the counters to weakly taken and clears the history.
func (g *GShare) Reset() {
	for i := range g.table {
		g.table[i] = 2
	}
	g.history = 0
}

func (g *GShare) index(pc isa.Addr) uint64 {
	return ((uint64(pc) >> 2) ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc under the
// current global history.
func (g *GShare) Predict(pc isa.Addr) bool {
	return g.table[g.index(pc)].taken()
}

// Update trains the indexed entry and shifts the outcome into the global
// history.
func (g *GShare) Update(pc isa.Addr, taken bool) {
	i := g.index(pc)
	if taken {
		g.table[i] = g.table[i].inc()
	} else {
		g.table[i] = g.table[i].dec()
	}
	g.history = (g.history << 1) & g.mask
	if taken {
		g.history |= 1
	}
}

// Hybrid is the Table II predictor: gShare and bimodal components with a
// per-PC chooser trained toward whichever component was correct.
type Hybrid struct {
	gshare  *GShare
	bimodal *Bimodal
	chooser []counter // >= 2 selects gshare
	mask    uint64
}

// NewHybrid creates a hybrid predictor; each component table and the
// chooser have the given number of entries.
func NewHybrid(entries int) *Hybrid {
	h := &Hybrid{
		gshare:  NewGShare(entries),
		bimodal: NewBimodal(entries),
		chooser: make([]counter, entries),
		mask:    uint64(entries - 1),
	}
	h.Reset()
	return h
}

// Entries returns the per-component table size the predictor was built
// with (pooled cores reuse a predictor only when the size matches).
func (h *Hybrid) Entries() int { return len(h.chooser) }

// Reset restores the initial prediction state of both components and the
// chooser, as if freshly constructed.
func (h *Hybrid) Reset() {
	h.gshare.Reset()
	h.bimodal.Reset()
	for i := range h.chooser {
		h.chooser[i] = 2
	}
}

func (h *Hybrid) chooserIndex(pc isa.Addr) uint64 {
	return (uint64(pc) >> 2) & h.mask
}

// Predict returns the predicted direction for the branch at pc.
func (h *Hybrid) Predict(pc isa.Addr) bool {
	if h.chooser[h.chooserIndex(pc)].taken() {
		return h.gshare.Predict(pc)
	}
	return h.bimodal.Predict(pc)
}

// Update trains both components and steers the chooser toward the one
// that predicted correctly (no movement when they agree).
func (h *Hybrid) Update(pc isa.Addr, taken bool) { h.PredictUpdate(pc, taken) }

// PredictUpdate returns Predict(pc) and then performs Update(pc, taken),
// reading each table entry once. The chooser and the bimodal table have
// the same size, so they share one index.
func (h *Hybrid) PredictUpdate(pc isa.Addr, taken bool) bool {
	g, b := h.gshare, h.bimodal
	ci, gi := h.chooserIndex(pc), g.index(pc)
	gc, bc := g.table[gi], b.table[ci]
	gp, bp := gc.taken(), bc.taken()
	pred := bp
	if h.chooser[ci].taken() {
		pred = gp
	}
	if gp != bp {
		if gp == taken {
			h.chooser[ci] = h.chooser[ci].inc()
		} else {
			h.chooser[ci] = h.chooser[ci].dec()
		}
	}
	if taken {
		g.table[gi], b.table[ci] = gc.inc(), bc.inc()
	} else {
		g.table[gi], b.table[ci] = gc.dec(), bc.dec()
	}
	g.history = (g.history << 1) & g.mask
	if taken {
		g.history |= 1
	}
	return pred
}
