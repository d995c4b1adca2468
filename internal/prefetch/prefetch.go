// Package prefetch defines the instruction-prefetcher contract used by
// the timing simulator and implements the paper's comparison points: a
// null prefetcher (the next-line-only baseline; next-line itself lives in
// the fetch unit), the probabilistic prefetcher of the Fig. 1 opportunity
// study, the perfect streamer upper bound, the discontinuity predictor
// (Spracklen et al., related work), and FDIP, the state-of-the-art
// fetch-directed instruction prefetcher (Reinman et al.) that TIFS is
// compared against in Fig. 13.
//
// TIFS itself lives in internal/core (it is the paper's contribution);
// it implements the same Prefetcher interface.
package prefetch

import "tifs/internal/isa"

// Memory is the prefetcher's view of the lower-level memory system: it
// issues block reads and IML metadata accesses and learns when they
// complete. The uncore implements it with bank contention; tests use
// fixed-latency fakes.
type Memory interface {
	// Prefetch issues a prefetch of block b for the given core at the
	// core's current cycle and returns the cycle the data arrives.
	Prefetch(core int, b isa.Block, now uint64) (ready uint64)
	// MetaRead issues a predictor-metadata read (virtualized IML read) at
	// cache-block granularity and returns its completion cycle.
	MetaRead(core int, token uint64, now uint64) (ready uint64)
	// MetaWrite issues a predictor-metadata write.
	MetaWrite(core int, token uint64, now uint64)
}

// L1View lets run-ahead prefetchers skip blocks already resident in the
// core's L1 instruction cache (one of the paper's criticisms of
// branch-predictor-directed prefetchers is needing exactly this filter).
type L1View interface {
	// ContainsBlock probes the L1-I without disturbing replacement state.
	ContainsBlock(b isa.Block) bool
}

// Stats are the prefetcher counters every implementation reports.
type Stats struct {
	// Issued is the number of prefetches sent to memory.
	Issued uint64
	// HitsTimely counts probe hits whose block had fully arrived.
	HitsTimely uint64
	// HitsLate counts probe hits still in flight (latency partly hidden).
	HitsLate uint64
	// Discards counts prefetched blocks evicted unused (Fig. 12).
	Discards uint64
	// MetaReads and MetaWrites count predictor-metadata block transfers
	// (TIFS virtualized IML traffic, Fig. 12).
	MetaReads, MetaWrites uint64
}

// Hits returns total probe hits.
func (s Stats) Hits() uint64 { return s.HitsTimely + s.HitsLate }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Issued += other.Issued
	s.HitsTimely += other.HitsTimely
	s.HitsLate += other.HitsLate
	s.Discards += other.Discards
	s.MetaReads += other.MetaReads
	s.MetaWrites += other.MetaWrites
}

// FetchOutcome tells the prefetcher how a demand block fetch was served.
type FetchOutcome uint8

// Fetch outcomes, in service order.
const (
	// FetchL1Hit: the block was in the L1-I cache.
	FetchL1Hit FetchOutcome = iota
	// FetchNextLineHit: the fetch unit's next-line prefetcher had the
	// block (counted as an L1 hit in all paper metrics).
	FetchNextLineHit
	// FetchPrefetchHit: this prefetcher's Probe supplied the block.
	FetchPrefetchHit
	// FetchMiss: a true miss — the paper's trainable event.
	FetchMiss
)

// String names the outcome.
func (o FetchOutcome) String() string {
	switch o {
	case FetchL1Hit:
		return "l1-hit"
	case FetchNextLineHit:
		return "next-line-hit"
	case FetchPrefetchHit:
		return "prefetch-hit"
	case FetchMiss:
		return "miss"
	default:
		return "unknown"
	}
}

// Prefetcher is the per-core instruction prefetch engine. The fetch unit
// drives it with the calls below; all cycles are core-local.
//
// Call protocol per core step: OnWindow with the upcoming event window
// (window[0] is the event about to fetch); then, for each covered cache
// block, on an L1/next-line miss a Probe, followed by OnFetchBlock with
// the final outcome; then OnEvent once the event retires. A Probe hit
// transfers the block to the L1 (the prefetcher frees its copy) and may
// perform training internally; the subsequent OnFetchBlock carries
// FetchPrefetchHit for information only.
type Prefetcher interface {
	// Name identifies the configuration in experiment output.
	Name() string
	// OnWindow exposes the upcoming event window for run-ahead
	// exploration. window[0] is the next event to execute; each call's
	// window starts one event after the previous call's.
	OnWindow(window []isa.BlockEvent, now uint64)
	// OnFetchBlock notifies of a demand block fetch and its outcome.
	OnFetchBlock(b isa.Block, outcome FetchOutcome, now uint64)
	// OnEvent notifies of event retirement (training).
	OnEvent(ev isa.BlockEvent, now uint64)
	// Probe asks whether the prefetcher holds block b on an L1 miss. On a
	// hit the entry transfers to the L1 and the returned cycle says when
	// the data is (or will be) available.
	Probe(b isa.Block, now uint64) (ready uint64, ok bool)
	// Stats returns the accumulated counters.
	Stats() Stats
}

// None is the null prefetcher: the system then relies solely on the fetch
// unit's next-line prefetcher, the paper's baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "next-line" }

// OnWindow implements Prefetcher.
func (None) OnWindow([]isa.BlockEvent, uint64) {}

// OnFetchBlock implements Prefetcher.
func (None) OnFetchBlock(isa.Block, FetchOutcome, uint64) {}

// OnEvent implements Prefetcher.
func (None) OnEvent(isa.BlockEvent, uint64) {}

// Probe implements Prefetcher.
func (None) Probe(isa.Block, uint64) (uint64, bool) { return 0, false }

// Stats implements Prefetcher.
func (None) Stats() Stats { return Stats{} }
