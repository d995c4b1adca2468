// Package core implements Temporal Instruction Fetch Streaming (TIFS) —
// the paper's contribution. TIFS records the sequence of L1-I fetch
// misses in per-core Instruction Miss Logs (IMLs), locates recurrences
// through a shared Index Table that always points at the most recent
// occurrence of each miss address (the Recent heuristic of Fig. 6), and
// replays the logged streams through per-core Streamed Value Buffers
// (SVBs) that prefetch ahead of the fetch unit with rate matching and
// end-of-stream detection (Section 5).
//
// The IML may be unbounded (analysis upper bound), a dedicated SRAM ring
// (8K entries/core, 156 KB aggregate — Section 6.3), or virtualized into
// the L2 data array (Section 5.2.2), in which case IML reads and writes
// become L2 traffic at cache-block granularity (twelve 39-bit entries
// per 64-byte block) and index updates can be dropped under tag-pipeline
// back-pressure.
package core

import (
	"fmt"

	"tifs/internal/flathash"
	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/xrand"
)

// EntriesPerIMLBlock is how many logged miss addresses fit in one
// 64-byte cache block (twelve 39-bit entries, Section 5.2.2).
const EntriesPerIMLBlock = 12

// Config parameterizes a TIFS instance.
type Config struct {
	// IMLEntries is the per-core miss-log capacity in addresses; 0 means
	// unbounded (the paper's TIFS-unbounded configuration).
	IMLEntries int
	// Virtualized stores the IML in the L2 data array: IML reads/writes
	// are issued to memory as metadata traffic and contend with demand
	// fetches. Dedicated (false) IML storage issues no traffic.
	Virtualized bool
	// SVBBlocks is the per-core streamed-value-buffer capacity in blocks
	// (default 32 = 2 KB, Section 6.3).
	SVBBlocks int
	// MaxStreams is the number of simultaneously followed streams per
	// core (default 4; traps and context switches create parallel
	// streams, Section 5.2).
	MaxStreams int
	// Lookahead is the rate-matching target: the number of
	// streamed-but-not-yet-accessed blocks maintained per stream
	// (default 4, Section 5.2.1).
	Lookahead int
	// DisableEndOfStream turns off the hit-bit pause heuristic
	// (Section 5.1.3); an ablation knob — the paper's design has it on.
	DisableEndOfStream bool
	// IndexDropProb injects index-update drops, modeling tag-pipeline
	// back-pressure (Section 5.2.2). 0 disables.
	IndexDropProb float64
	// Seed names the random stream used only for failure injection.
	Seed string
}

func (c Config) withDefaults() Config {
	if c.SVBBlocks == 0 {
		c.SVBBlocks = 32
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 4
	}
	if c.Lookahead == 0 {
		c.Lookahead = 4
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.IMLEntries < 0 || c.SVBBlocks < 0 || c.MaxStreams < 0 || c.Lookahead < 0 {
		return fmt.Errorf("core: negative size in config %+v", c)
	}
	if c.IndexDropProb < 0 || c.IndexDropProb > 1 {
		return fmt.Errorf("core: IndexDropProb %f out of range", c.IndexDropProb)
	}
	return nil
}

// UnboundedConfig is the paper's TIFS-unbounded-IML configuration.
func UnboundedConfig() Config { return Config{} }

// DedicatedConfig is the paper's dedicated-SRAM configuration: 8K IML
// entries per core (156 KB aggregate across 4 cores).
func DedicatedConfig() Config { return Config{IMLEntries: 8192} }

// VirtualizedConfig stores the same capacity in the L2 data array.
func VirtualizedConfig() Config {
	return Config{IMLEntries: 8192, Virtualized: true}
}

// Name returns the configuration label used in Fig. 13.
func (c Config) Name() string {
	switch {
	case c.IMLEntries == 0:
		return "TIFS-unbounded"
	case c.Virtualized:
		return "TIFS-virtualized"
	default:
		return "TIFS-dedicated"
	}
}

// TIFSStats extends the common prefetcher counters with TIFS-specific
// telemetry.
type TIFSStats struct {
	// StreamsAllocated counts index hits that started a new stream.
	StreamsAllocated uint64
	// IndexLookups counts misses that consulted the index.
	IndexLookups uint64
	// IndexMisses counts lookups with no live IML position.
	IndexMisses uint64
	// IndexDrops counts injected index-update losses.
	IndexDrops uint64
	// Pauses counts end-of-stream pauses; Resumes counts demand-driven
	// resumptions.
	Pauses, Resumes uint64
	// LoggedMisses and LoggedHits count IML appends by kind.
	LoggedMisses, LoggedHits uint64
}

type imlPos struct {
	core int
	idx  uint64 // absolute append index
}

// packPos packs an IML position into one word for the open-addressed
// index table: core in the top 16 bits, append index in the low 48.
// Append indices are bounded by the per-core event budget, so 48 bits
// never overflow in practice; New rejects core counts beyond 16 bits.
func packPos(p imlPos) uint64 { return uint64(p.core)<<48 | p.idx }

// unpackPos inverts packPos.
func unpackPos(v uint64) imlPos {
	return imlPos{core: int(v >> 48), idx: v & (1<<48 - 1)}
}

type logEntry struct {
	block  isa.Block
	svbHit bool
}

// iml is one core's instruction miss log: an append-only sequence with a
// bounded live window (the ring) or unbounded storage.
type iml struct {
	entries  []logEntry
	appended uint64
	capacity int // 0 = unbounded
}

// reset empties the log for a new run, keeping the entries slice's
// capacity (the live window refills to the same size).
func (l *iml) reset(capacity int) {
	l.entries = l.entries[:0]
	l.appended = 0
	l.capacity = capacity
}

func (l *iml) append(e logEntry) uint64 {
	idx := l.appended
	if l.capacity == 0 {
		l.entries = append(l.entries, e)
	} else {
		if len(l.entries) < l.capacity {
			l.entries = append(l.entries, e)
		} else {
			l.entries[idx%uint64(l.capacity)] = e
		}
	}
	l.appended++
	return idx
}

func (l *iml) alive(idx uint64) bool {
	if idx >= l.appended {
		return false
	}
	if l.capacity == 0 {
		return true
	}
	return idx+uint64(l.capacity) >= l.appended
}

func (l *iml) at(idx uint64) logEntry {
	if l.capacity == 0 {
		return l.entries[idx]
	}
	return l.entries[idx%uint64(l.capacity)]
}

// TIFS is a chip-wide instance: per-core SVBs and IMLs with one shared
// Index Table, so one core can follow a stream another core logged
// (Section 5.1).
type TIFS struct {
	cfg   Config
	mem   prefetch.Memory
	rng   xrand.Rand
	index flathash.Map // block -> packed imlPos (the shared Index Table)
	cores []*Engine
}

// indexSizeHint returns the initial Index Table capacity implied by the
// configuration: a bounded IML can hold at most cores*IMLEntries live
// log positions at once (the table still grows if the workload touches
// more distinct blocks over time).
func (c Config) indexSizeHint(cores int) int {
	if c.IMLEntries > 0 {
		return cores * c.IMLEntries
	}
	return 1 << 15
}

// New creates a TIFS instance for the given number of cores. mem carries
// prefetch and (for virtualized IMLs) metadata traffic.
func New(cfg Config, cores int, mem prefetch.Memory) *TIFS {
	if cores < 1 {
		panic("core: need at least one core")
	}
	if cores > 1<<16 {
		// packPos keeps the IML core id in 16 bits; beyond that the
		// index table would alias cores.
		panic("core: at most 65536 cores supported")
	}
	t := &TIFS{cores: make([]*Engine, cores)}
	for i := range t.cores {
		t.cores[i] = &Engine{t: t, id: i}
	}
	t.Reset(cfg, mem)
	return t
}

// Reset restores the instance to the state New(cfg, cores, mem) would
// produce for the same core count, retaining the index table's and the
// per-core logs' capacity so pooled simulation runs stop allocating once
// they reach steady-state size. It panics on an invalid configuration.
func (t *TIFS) Reset(cfg Config, mem prefetch.Memory) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t.cfg = cfg
	t.mem = mem
	t.rng.SeedFromString("tifs/" + cfg.Seed)
	t.index.Reset()
	t.index.Grow(cfg.indexSizeHint(len(t.cores)))
	for _, e := range t.cores {
		e.log.reset(cfg.IMLEntries)
		if cap(e.svb) < cfg.SVBBlocks {
			e.svb = make([]svbEntry, 0, cfg.SVBBlocks)
		} else {
			e.svb = e.svb[:0]
		}
		if len(e.strs) != cfg.MaxStreams {
			e.strs = make([]stream, cfg.MaxStreams)
		} else {
			clear(e.strs)
		}
		e.stats = prefetch.Stats{}
		e.tstats = TIFSStats{}
	}
}

// Core returns the per-core engine, which implements
// prefetch.Prefetcher.
func (t *TIFS) Core(i int) *Engine { return t.cores[i] }

// Stats aggregates the common prefetcher counters across cores.
func (t *TIFS) Stats() prefetch.Stats {
	var s prefetch.Stats
	for _, e := range t.cores {
		s.Add(e.stats)
	}
	return s
}

// TIFSStats aggregates the TIFS-specific counters across cores.
func (t *TIFS) TIFSStats() TIFSStats {
	var s TIFSStats
	for _, e := range t.cores {
		s.StreamsAllocated += e.tstats.StreamsAllocated
		s.IndexLookups += e.tstats.IndexLookups
		s.IndexMisses += e.tstats.IndexMisses
		s.IndexDrops += e.tstats.IndexDrops
		s.Pauses += e.tstats.Pauses
		s.Resumes += e.tstats.Resumes
		s.LoggedMisses += e.tstats.LoggedMisses
		s.LoggedHits += e.tstats.LoggedHits
	}
	return s
}
