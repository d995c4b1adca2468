package core

import (
	"tifs/internal/isa"
	"tifs/internal/prefetch"
)

type svbEntry struct {
	block     isa.Block
	ready     uint64
	streamID  int
	streamGen uint64
	lastUse   uint64
}

// stream is one in-progress stream: an IML cursor plus rate-matching
// state (Section 5.2.1's FIFO of upcoming prefetch addresses is modeled
// by the SVB entries tagged with the stream ID plus this cursor).
type stream struct {
	live       bool
	gen        uint64 // bumped on reallocation; stale SVB entries ignored
	pos        imlPos // next IML position to follow
	inflight   int    // streamed-but-not-yet-accessed blocks
	paused     bool
	pauseBlock isa.Block
	lastUse    uint64
	metaChunk  uint64 // last virtualized IML block read (pos/12 + 1)
	metaReady  uint64 // completion cycle of that read
	nextChunk  uint64 // read-ahead IML block, if issued
	nextReady  uint64
}

// Engine is the per-core TIFS front end: the SVB plus the core's IML. It
// implements prefetch.Prefetcher.
type Engine struct {
	t    *TIFS
	id   int
	log  iml
	svb  []svbEntry
	strs []stream

	stats  prefetch.Stats
	tstats TIFSStats
}

var _ prefetch.Prefetcher = (*Engine)(nil)

// OnWindow implements prefetch.Prefetcher. TIFS does not explore control
// flow — that independence from the branch predictor is its point.
func (e *Engine) OnWindow([]isa.BlockEvent, uint64) {}

// Probe implements prefetch.Prefetcher: SVB lookup on an L1-I miss. On a
// hit the block transfers to the L1, the hit is logged to the IML (so the
// block is fetched on the next stream traversal, Section 5.1.2), and the
// owning stream advances under rate matching.
func (e *Engine) Probe(b isa.Block, now uint64) (uint64, bool) {
	for i := range e.svb {
		if e.svb[i].block != b {
			continue
		}
		entry := e.svb[i]
		e.svb = append(e.svb[:i], e.svb[i+1:]...)
		if entry.ready <= now {
			e.stats.HitsTimely++
		} else {
			e.stats.HitsLate++
		}
		e.logAppend(b, true, now)
		s := &e.strs[entry.streamID]
		if s.live && s.gen == entry.streamGen {
			if s.inflight > 0 {
				s.inflight--
			}
			if s.paused && s.pauseBlock == b {
				// The potential stream end was really taken: resume.
				s.paused = false
				e.tstats.Resumes++
			}
			s.lastUse = now
			e.advance(entry.streamID, now)
		}
		return entry.ready, true
	}
	return 0, false
}

// OnFetchBlock implements prefetch.Prefetcher. True misses are logged to
// the IML and trigger an Index Table lookup to start a new stream
// (Section 5.1.2); everything else is already handled.
func (e *Engine) OnFetchBlock(b isa.Block, outcome prefetch.FetchOutcome, now uint64) {
	if outcome != prefetch.FetchMiss {
		return
	}
	e.tstats.IndexLookups++
	packed, ok := e.t.index.Get(uint64(b))
	pos := unpackPos(packed)
	if ok && e.t.cores[pos.core].log.alive(pos.idx) {
		id := e.allocStream(now)
		s := &e.strs[id]
		*s = stream{
			live:    true,
			gen:     s.gen + 1,
			pos:     imlPos{core: pos.core, idx: pos.idx + 1},
			lastUse: now,
		}
		if e.t.cfg.Virtualized {
			// The Index Table lookup rides the trigger miss's L2 tag
			// access, and the first IML block read proceeds in parallel
			// with its data access (Section 5.2.2), so the stream's first
			// chunk of addresses is available when the core resumes. The
			// read still costs a bank slot and ledger traffic.
			s.metaChunk = (pos.idx+1)/EntriesPerIMLBlock + 1
			e.t.mem.MetaRead(e.id, metaToken(s.pos), now)
			e.stats.MetaReads++
			s.metaReady = now
		}
		e.tstats.StreamsAllocated++
		e.logAppend(b, false, now)
		e.advance(id, now)
		return
	}
	e.tstats.IndexMisses++
	e.logAppend(b, false, now)
}

// OnEvent implements prefetch.Prefetcher; TIFS trains on misses only.
func (e *Engine) OnEvent(isa.BlockEvent, uint64) {}

// Stats implements prefetch.Prefetcher.
func (e *Engine) Stats() prefetch.Stats { return e.stats }

// allocStream returns a free stream slot, recycling the least recently
// used one if all are live (its unconsumed SVB entries will age out as
// discards).
func (e *Engine) allocStream(now uint64) int {
	victim := 0
	for i := range e.strs {
		if !e.strs[i].live {
			return i
		}
		if e.strs[i].lastUse < e.strs[victim].lastUse {
			victim = i
		}
	}
	return victim
}

// advance implements rate matching: keep Lookahead streamed-but-unused
// blocks in the SVB for the stream, reading further IML entries as the
// FIFO drains (Section 5.2.1) and pausing at potential stream ends
// (Section 5.1.3).
func (e *Engine) advance(id int, now uint64) {
	s := &e.strs[id]
	for s.live && !s.paused && s.inflight < e.t.cfg.Lookahead {
		src := e.t.cores[s.pos.core]
		if !src.log.alive(s.pos.idx) {
			s.live = false
			return
		}
		entry := src.log.at(s.pos.idx)

		issueAt := now
		if e.t.cfg.Virtualized {
			// Reading the IML is an L2 access at cache-block granularity;
			// addresses become available when the read completes. The SVB
			// reads ahead — the next IML block is fetched while the
			// current one drains ("the stream fetch proceeds in parallel
			// with the L2 data-array access", Section 5.2.2) — so in
			// steady state the gate is already open.
			chunk := s.pos.idx/EntriesPerIMLBlock + 1
			if chunk != s.metaChunk {
				if chunk == s.nextChunk {
					s.metaChunk, s.metaReady = s.nextChunk, s.nextReady
				} else {
					s.metaChunk = chunk
					s.metaReady = e.t.mem.MetaRead(e.id, metaToken(s.pos), now)
					e.stats.MetaReads++
				}
				s.nextChunk = 0
			}
			if s.nextChunk == 0 && s.pos.idx%EntriesPerIMLBlock >= EntriesPerIMLBlock/2 {
				s.nextChunk = chunk + 1
				s.nextReady = e.t.mem.MetaRead(e.id, metaToken(imlPos{core: s.pos.core, idx: s.pos.idx + EntriesPerIMLBlock}), now)
				e.stats.MetaReads++
			}
			if s.metaReady > issueAt {
				issueAt = s.metaReady
			}
		}

		e.insertSVB(entry.block, e.t.mem.Prefetch(e.id, entry.block, issueAt), id, now)
		e.stats.Issued++
		s.pos.idx++
		s.inflight++

		if !entry.svbHit && !e.t.cfg.DisableEndOfStream {
			// Last traversal ended here (the entry was logged from a
			// demand miss, not an SVB hit): fetch this block but pause
			// until it is demanded (Section 5.1.3).
			s.paused = true
			s.pauseBlock = entry.block
			e.tstats.Pauses++
		}
	}
}

// insertSVB adds a streamed block, evicting the least recently used entry
// when full; evicted entries were never consumed, so they are discards.
// Duplicate blocks (two streams converging) are permitted: the surplus
// copy ages out as a discard, costing the same bandwidth it did in
// hardware.
func (e *Engine) insertSVB(b isa.Block, ready uint64, streamID int, now uint64) {
	entry := svbEntry{block: b, ready: ready, streamID: streamID, streamGen: e.strs[streamID].gen, lastUse: now}
	if len(e.svb) < e.t.cfg.SVBBlocks {
		e.svb = append(e.svb, entry)
		return
	}
	victim := 0
	for i := 1; i < len(e.svb); i++ {
		if e.svb[i].lastUse < e.svb[victim].lastUse {
			victim = i
		}
	}
	v := e.svb[victim]
	vs := &e.strs[v.streamID]
	if vs.live && vs.gen == v.streamGen && vs.inflight > 0 {
		vs.inflight--
	}
	e.stats.Discards++
	e.svb[victim] = entry
}

// logAppend records a miss (or SVB hit) in this core's IML and updates
// the shared Index Table under the Recent policy. Virtualized IMLs write
// back each filled metadata block to L2.
func (e *Engine) logAppend(b isa.Block, svbHit bool, now uint64) {
	idx := e.log.append(logEntry{block: b, svbHit: svbHit})
	if svbHit {
		e.tstats.LoggedHits++
	} else {
		e.tstats.LoggedMisses++
	}
	if e.t.cfg.Virtualized && (idx+1)%EntriesPerIMLBlock == 0 {
		e.t.mem.MetaWrite(e.id, metaToken(imlPos{core: e.id, idx: idx}), now)
		e.stats.MetaWrites++
	}
	if e.t.cfg.IndexDropProb > 0 && e.t.rng.Bool(e.t.cfg.IndexDropProb) {
		e.tstats.IndexDrops++
		return
	}
	e.t.index.Put(uint64(b), packPos(imlPos{core: e.id, idx: idx}))
}

// metaToken derives a stable token identifying an IML metadata block for
// bank mapping in the uncore.
func metaToken(p imlPos) uint64 {
	return uint64(p.core)<<56 | p.idx/EntriesPerIMLBlock
}
