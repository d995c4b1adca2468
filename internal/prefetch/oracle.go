package prefetch

import (
	"tifs/internal/flathash"
	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// Probabilistic is the Fig. 1 opportunity-study mechanism: each L1-I miss
// to an on-chip block (one fetched at least once before) is converted
// into an instant prefetch hit with probability equal to the configured
// coverage. At coverage 1 it is the "Perfect" bar of Fig. 13: every such
// miss hits, and only first-touch misses still go to memory, as in the
// paper's probabilistic model at 100% coverage (Section 2).
type Probabilistic struct {
	coverage float64
	seen     flathash.Map
	rng      xrand.Rand
	stats    Stats
}

// NewProbabilistic creates the Fig. 1 model with coverage in [0,1].
func NewProbabilistic(coverage float64, seed string) *Probabilistic {
	p := &Probabilistic{}
	p.Reset(coverage, seed)
	return p
}

// Reset restores the state NewProbabilistic(coverage, seed) would
// produce, reusing the seen table and generator.
func (p *Probabilistic) Reset(coverage float64, seed string) {
	p.coverage = coverage
	p.seen.Reset()
	p.rng.SeedFromString("probabilistic/" + seed)
	p.stats = Stats{}
}

// OnWindow implements Prefetcher.
func (p *Probabilistic) OnWindow([]isa.BlockEvent, uint64) {}

// OnFetchBlock implements Prefetcher.
func (p *Probabilistic) OnFetchBlock(b isa.Block, outcome FetchOutcome, now uint64) {
	p.seen.Put(uint64(b), 1)
}

// OnEvent implements Prefetcher.
func (p *Probabilistic) OnEvent(isa.BlockEvent, uint64) {}

// Probe implements Prefetcher.
func (p *Probabilistic) Probe(b isa.Block, now uint64) (uint64, bool) {
	if !p.seen.Contains(uint64(b)) {
		return 0, false
	}
	if !p.rng.Bool(p.coverage) {
		return 0, false
	}
	p.stats.HitsTimely++
	return now, true
}

// Stats implements Prefetcher.
func (p *Probabilistic) Stats() Stats { return p.stats }
