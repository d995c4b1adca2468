// Package uncore models the shared memory system of the Table II CMP: an
// 8 MB 16-way L2 split into 16 banks with independently occupied data
// pipelines (a new access at most every 4 cycles per bank), a 20-cycle
// minimum hit latency, and a 45 ns (~180-cycle at 4 GHz) main memory
// behind it. It also keeps the L2 traffic ledger that the Fig. 12
// overhead accounting reads.
//
// The uncore implements prefetch.Memory, so prefetchers (including the
// TIFS virtualized-IML metadata traffic) contend with demand fetches for
// the same banks.
package uncore

import (
	"fmt"

	"tifs/internal/cache"
	"tifs/internal/isa"
)

// Config sizes the shared memory system; zero values select Table II.
type Config struct {
	// L2 is the shared cache geometry (default 8 MB 16-way).
	L2 cache.Config
	// Banks is the number of L2 banks (default 16).
	Banks int
	// HitLatency is the minimum total L2 hit latency in cycles
	// (default 20).
	HitLatency int
	// BankBusy is the bank data-pipeline occupancy per access in cycles
	// (default 4: "each bank's data pipeline may initiate a new access at
	// most once every four cycles").
	BankBusy int
	// MemLatency is the main-memory access latency in cycles beyond the
	// L2 (default 180 ≈ 45 ns at 4 GHz).
	MemLatency int
	// MemBlockCycles is the memory-channel occupancy per 64-byte block
	// (default 9 ≈ 28.4 GB/s at 4 GHz).
	MemBlockCycles int
}

func (c Config) withDefaults() Config {
	if c.L2.SizeBytes == 0 {
		c.L2 = cache.Config{SizeBytes: 8 * 1024 * 1024, Assoc: 16}
	}
	if c.Banks == 0 {
		c.Banks = 16
	}
	if c.HitLatency == 0 {
		c.HitLatency = 20
	}
	if c.BankBusy == 0 {
		c.BankBusy = 4
	}
	if c.MemLatency == 0 {
		c.MemLatency = 180
	}
	if c.MemBlockCycles == 0 {
		c.MemBlockCycles = 9
	}
	return c
}

// TrafficKind classifies L2 accesses for the Fig. 12 ledger.
type TrafficKind uint8

// Traffic kinds.
const (
	// TrafficFetch is a demand instruction fetch.
	TrafficFetch TrafficKind = iota
	// TrafficNextLine is a next-line prefetch (part of the base system).
	TrafficNextLine
	// TrafficPrefetch is an additional-prefetcher block read (TIFS
	// streams, FDIP exploration).
	TrafficPrefetch
	// TrafficIMLRead and TrafficIMLWrite are virtualized-IML metadata
	// block transfers.
	TrafficIMLRead
	TrafficIMLWrite
	// TrafficData stands in for data-side reads and writebacks, which the
	// simulator accounts synthetically (see the README's "Substitutions"
	// section); it forms part of the Fig. 12 baseline-traffic
	// denominator.
	TrafficData
	numTrafficKinds
)

// String names the traffic kind.
func (k TrafficKind) String() string {
	switch k {
	case TrafficFetch:
		return "fetch"
	case TrafficNextLine:
		return "next-line"
	case TrafficPrefetch:
		return "prefetch"
	case TrafficIMLRead:
		return "iml-read"
	case TrafficIMLWrite:
		return "iml-write"
	case TrafficData:
		return "data"
	default:
		return fmt.Sprintf("traffic(%d)", uint8(k))
	}
}

// NumTrafficKinds returns how many ledger kinds exist (serialization
// support for the persistent result store).
func NumTrafficKinds() int { return int(numTrafficKinds) }

// Traffic is the block-transfer ledger.
type Traffic struct {
	counts [numTrafficKinds]uint64
}

// Count returns the transfers of one kind.
func (t Traffic) Count(k TrafficKind) uint64 { return t.counts[k] }

// SetCount sets one kind's count (deserialization support; out-of-range
// kinds from a newer format version are ignored).
func (t *Traffic) SetCount(k TrafficKind, v uint64) {
	if k < numTrafficKinds {
		t.counts[k] = v
	}
}

// Sub returns the element-wise difference t - other (used to remove
// warmup-era traffic from measurements).
func (t Traffic) Sub(other Traffic) Traffic {
	var out Traffic
	for i := range t.counts {
		out.counts[i] = t.counts[i] - other.counts[i]
	}
	return out
}

// Base returns the baseline L2 traffic the paper normalizes against:
// demand fetches, next-line prefetches, and data reads/writebacks.
func (t Traffic) Base() uint64 {
	return t.counts[TrafficFetch] + t.counts[TrafficNextLine] + t.counts[TrafficData]
}

// Overhead returns the added traffic of the prefetch mechanism: stream
// and run-ahead prefetches plus IML metadata transfers.
func (t Traffic) Overhead() uint64 {
	return t.counts[TrafficPrefetch] + t.counts[TrafficIMLRead] + t.counts[TrafficIMLWrite]
}

// OverheadFrac returns Overhead relative to Base (the Fig. 12 right
// panel), minus the prefetched blocks that replaced demand fetches —
// correctly prefetched blocks "cause no increase in traffic"
// (Section 6.4) — which the caller supplies as usefulPrefetches.
func (t Traffic) OverheadFrac(usefulPrefetches uint64) float64 {
	base := t.Base()
	if base == 0 {
		return 0
	}
	over := t.Overhead()
	if usefulPrefetches > over {
		usefulPrefetches = over
	}
	return float64(over-usefulPrefetches) / float64(base)
}

// Stats reports uncore activity beyond the ledger.
type Stats struct {
	// L2Hits and L2Misses split block reads by where they were served.
	L2Hits, L2Misses uint64
	// BankWaitCycles accumulates cycles requests spent queued on busy
	// banks — the contention the virtualized IML adds (Fig. 13,
	// OLTP-DB2).
	BankWaitCycles uint64
}

// L2 is the shared banked cache plus memory behind it.
type L2 struct {
	cfg      Config
	cache    *cache.Cache
	bankFree []uint64
	memFree  uint64
	traffic  Traffic
	stats    Stats
}

// New builds the uncore; zero-valued config fields default to Table II.
func New(cfg Config) *L2 {
	u := &L2{}
	u.Reset(cfg)
	return u
}

// Config returns the applied configuration.
func (u *L2) Config() Config { return u.cfg }

// Reset restores the uncore to the state New(cfg) would produce, reusing
// the cache ways and bank array when the geometry is unchanged so pooled
// simulation runs do not reallocate the L2.
func (u *L2) Reset(cfg Config) {
	cfg = cfg.withDefaults()
	if u.cache != nil && u.cache.Config() == cfg.L2 {
		u.cache.Reset()
	} else {
		u.cache = cache.New(cfg.L2)
	}
	if len(u.bankFree) == cfg.Banks {
		clear(u.bankFree)
	} else {
		u.bankFree = make([]uint64, cfg.Banks)
	}
	u.cfg = cfg
	u.memFree = 0
	u.traffic = Traffic{}
	u.stats = Stats{}
}

// Traffic returns a copy of the ledger.
func (u *L2) Traffic() Traffic { return u.traffic }

// Stats returns a copy of the activity counters.
func (u *L2) Stats() Stats { return u.stats }

// bank maps a block to its bank by low-order block bits, as banked L2s
// interleave.
func (u *L2) bank(b uint64) int { return int(b % uint64(u.cfg.Banks)) }

// occupy reserves the bank data pipeline and returns the access start
// cycle, accumulating queue wait.
func (u *L2) occupy(bank int, now uint64) uint64 {
	start := now
	if u.bankFree[bank] > start {
		u.stats.BankWaitCycles += u.bankFree[bank] - start
		start = u.bankFree[bank]
	}
	u.bankFree[bank] = start + uint64(u.cfg.BankBusy)
	return start
}

// ReadBlock performs a block read for the given traffic kind and returns
// the completion cycle. L2 misses go to memory and fill the L2.
func (u *L2) ReadBlock(core int, b isa.Block, now uint64, kind TrafficKind) uint64 {
	u.traffic.counts[kind]++
	start := u.occupy(u.bank(uint64(b)), now)
	if u.cache.Access(b) {
		u.stats.L2Hits++
		return start + uint64(u.cfg.HitLatency)
	}
	u.stats.L2Misses++
	mstart := start + uint64(u.cfg.HitLatency)
	if u.memFree > mstart {
		mstart = u.memFree
	}
	u.memFree = mstart + uint64(u.cfg.MemBlockCycles)
	u.cache.Fill(b)
	return mstart + uint64(u.cfg.MemLatency)
}

// AddDataTraffic accounts synthetic data-side transfers (ledger only).
func (u *L2) AddDataTraffic(blocks uint64) {
	u.traffic.counts[TrafficData] += blocks
}

// Prefetch implements prefetch.Memory.
func (u *L2) Prefetch(core int, b isa.Block, now uint64) uint64 {
	return u.ReadBlock(core, b, now, TrafficPrefetch)
}

// MetaRead implements prefetch.Memory: a virtualized-IML block read. IML
// data lives in a reserved region of the L2 data array, so it is always
// an L2 hit, but it occupies a bank like any other access.
func (u *L2) MetaRead(core int, token uint64, now uint64) uint64 {
	u.traffic.counts[TrafficIMLRead]++
	start := u.occupy(u.bank(token), now)
	return start + uint64(u.cfg.HitLatency)
}

// MetaWrite implements prefetch.Memory: a virtualized-IML block
// writeback; fire-and-forget but it occupies a bank.
func (u *L2) MetaWrite(core int, token uint64, now uint64) {
	u.traffic.counts[TrafficIMLWrite]++
	u.occupy(u.bank(token), now)
}
