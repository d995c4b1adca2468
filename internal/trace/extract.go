// Package trace turns raw fetch-event streams into the L1 instruction
// miss traces that TIFS and all offline analyses operate on, and provides
// the compact binary miss-trace codec the result store frames its
// miss-trace payloads with.
//
// The paper's definition of a "miss" (Section 4.1) is an instruction
// fetch that can be satisfied neither by the 64 KB 2-way L1-I cache nor
// by a next-line prefetcher running two blocks ahead of the fetch unit.
// Extractor implements exactly that filter functionally (no timing).
package trace

import (
	"tifs/internal/cache"
	"tifs/internal/isa"
)

// MissRecord describes one filtered L1-I miss.
type MissRecord struct {
	// Block is the missing instruction cache block.
	Block isa.Block
	// Seq is the index of the event (basic block) that triggered the miss
	// within the consumed stream.
	Seq uint64
	// Branches is the number of non-inner-loop conditional branches
	// executed since the previous miss; the Fig. 10 lookahead analysis
	// accumulates these counts.
	Branches int
	// Sequential reports that this miss is to the block immediately after
	// the previous miss (Fig. 5 removes such misses to model a perfect
	// next-line prefetcher).
	Sequential bool
}

// ExtractorConfig parameterizes miss extraction.
type ExtractorConfig struct {
	// L1 is the instruction cache geometry; zero value selects the
	// paper's 64 KB 2-way.
	L1 cache.Config
	// NextLineDepth is how many sequential blocks ahead the next-line
	// prefetcher keeps resident; zero selects the paper's 2.
	NextLineDepth int
}

func (c ExtractorConfig) withDefaults() ExtractorConfig {
	if c.L1.SizeBytes == 0 {
		c.L1 = cache.Config{SizeBytes: 64 * 1024, Assoc: 2}
	}
	if c.NextLineDepth == 0 {
		c.NextLineDepth = 2
	}
	return c
}

// Extractor filters a fetch-event stream into miss records. Feed it
// events directly, or use Run to pull from a source. Misses are delivered
// to the onMiss callback so large traces never need to be materialized.
type Extractor struct {
	cfg    ExtractorConfig
	l1     *cache.Cache
	onMiss func(MissRecord)

	seq      uint64
	branches int
	prevMiss isa.Block
	havePrev bool

	// last is the previous block fed, and haveLast whether the memo
	// holds it: it is on only when the L1 has more sets than
	// NextLineDepth (see Feed).
	last     isa.Block
	haveLast bool
	memo     bool

	accesses uint64
	misses   uint64
}

// NewExtractor creates an extractor delivering misses to onMiss.
func NewExtractor(cfg ExtractorConfig, onMiss func(MissRecord)) *Extractor {
	cfg = cfg.withDefaults()
	l1 := cache.New(cfg.L1)
	return &Extractor{
		cfg:    cfg,
		l1:     l1,
		onMiss: onMiss,
		memo:   l1.NumSets() > cfg.NextLineDepth,
	}
}

// Feed processes one fetch event. It reads the event in place: Run
// hands it a pointer into its batch buffer.
//
// After a block b is fed, b and the NextLineDepth blocks after it are
// resident, each in its own set when the L1 has more sets than
// NextLineDepth. So a re-fetch of b hits, and b is already the most
// recently used block of its set: it only counts the access. A fetch
// one to NextLineDepth blocks past b fills only the blocks past b's
// frontier.
func (e *Extractor) Feed(ev *isa.BlockEvent) {
	depth := isa.Block(e.cfg.NextLineDepth)
	last := ev.LastPC().Block()
	for b := ev.PC.Block(); b <= last; b++ {
		e.accesses++
		d := isa.Block(1)
		if e.haveLast {
			k := b - e.last
			if k == 0 {
				continue
			}
			if k-1 < depth {
				d = depth - k + 1
			}
		}
		if !e.l1.Access(b) {
			e.misses++
			rec := MissRecord{
				Block:      b,
				Seq:        e.seq,
				Branches:   e.branches,
				Sequential: e.havePrev && b == e.prevMiss+1,
			}
			e.prevMiss = b
			e.havePrev = true
			e.branches = 0
			e.l1.Fill(b)
			if e.onMiss != nil {
				e.onMiss(rec)
			}
		}
		// Next-line prefetcher: keep the next NextLineDepth sequential
		// blocks resident. Fills via prefetch are not misses.
		for ; d <= depth; d++ {
			e.l1.FillIfAbsent(b + d)
		}
		e.last, e.haveLast = b, e.memo
	}
	if ev.Kind.IsConditional() && !ev.InnerLoop {
		e.branches++
	}
	e.seq++
}

// Run pulls up to maxEvents events from src through the extractor and
// returns the number of events consumed (less than maxEvents only if the
// source ends). Batch-capable sources are drained through one reused
// event buffer — one dynamic dispatch per buffer instead of per event,
// and no per-event copies through the Next return path.
func (e *Extractor) Run(src isa.EventSource, maxEvents uint64) uint64 {
	if bs, ok := src.(isa.BatchSource); ok {
		return e.runBatched(bs, maxEvents)
	}
	var n uint64
	for n < maxEvents {
		ev, ok := src.Next()
		if !ok {
			break
		}
		e.Feed(&ev)
		n++
	}
	return n
}

// runBatched is Run over an isa.BatchSource.
func (e *Extractor) runBatched(bs isa.BatchSource, maxEvents uint64) uint64 {
	var buf [256]isa.BlockEvent
	var n uint64
	for n < maxEvents {
		want := uint64(len(buf))
		if left := maxEvents - n; left < want {
			want = left
		}
		got := bs.NextBatch(buf[:want])
		for i := range got {
			e.Feed(&buf[i])
		}
		n += uint64(got)
		if uint64(got) < want {
			break
		}
	}
	return n
}

// Accesses returns the number of block-granularity fetch accesses seen.
func (e *Extractor) Accesses() uint64 { return e.accesses }

// Misses returns the number of filtered misses produced.
func (e *Extractor) Misses() uint64 { return e.misses }

// MPKE returns misses per thousand events (a density diagnostic).
func (e *Extractor) MPKE() float64 {
	if e.seq == 0 {
		return 0
	}
	return 1000 * float64(e.misses) / float64(e.seq)
}

// ExtractMisses is a convenience that drains up to maxEvents events from
// src and returns the collected miss records in a slice of exactly their
// length. Collection runs in a buffer sized by missCapacity, so it does
// not reallocate as the trace grows, and one copy at the end trims it:
// callers such as the engine's trace memo keep the result for a whole
// pass.
func ExtractMisses(src isa.EventSource, maxEvents uint64, cfg ExtractorConfig) []MissRecord {
	buf := make([]MissRecord, 0, missCapacity(maxEvents))
	e := NewExtractor(cfg, func(m MissRecord) { buf = append(buf, m) })
	e.Run(src, maxEvents)
	out := make([]MissRecord, len(buf))
	copy(out, buf)
	return out
}

// missCapacity sizes the collection buffer for an event budget. Filtered
// misses on the Table I workloads run 0.16-1.7% of events at medium
// scale; 1/16 leaves room for denser streams, and ExtractMisses trims
// the buffer to the trace's length.
func missCapacity(maxEvents uint64) uint64 {
	const maxPrealloc = 1 << 22
	c := maxEvents/16 + 16
	if c > maxPrealloc {
		c = maxPrealloc
	}
	return c
}

// Blocks projects miss records to their block addresses.
func Blocks(recs []MissRecord) []isa.Block {
	out := make([]isa.Block, len(recs))
	for i, r := range recs {
		out[i] = r.Block
	}
	return out
}

// DropSequential returns the records with Sequential misses removed,
// as the Fig. 5 stream-length study requires.
func DropSequential(recs []MissRecord) []MissRecord {
	out := make([]MissRecord, 0, len(recs))
	for _, r := range recs {
		if !r.Sequential {
			out = append(out, r)
		}
	}
	return out
}
