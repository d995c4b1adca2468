package analysis

import "tifs/internal/isa"

// IMLEntryBits is the storage cost of one IML entry: a 38-bit physical
// block address plus the SVB-hit bit (paper Section 6.3).
const IMLEntryBits = 39

// IMLStorageKB converts per-core IML entries to kilobytes of storage.
func IMLStorageKB(entries int) float64 {
	return float64(entries) * IMLEntryBits / 8 / 1024
}

// IMLCapacityPoint is one point of the Fig. 11 sweep.
type IMLCapacityPoint struct {
	// EntriesPerCore is the IML capacity in logged addresses per core.
	EntriesPerCore int
	// StorageKB is the aggregate storage across all cores.
	StorageKB float64
	// Coverage is the fraction of misses predicted by stream replay.
	Coverage float64
}

// imlWindow is the stream-following tolerance: the SVB holds several
// streamed blocks at once, absorbing small deviations in access order
// (paper Section 5.2.1). The functional model checks the next few logged
// addresses of the active stream.
const imlWindow = 4

// DefaultIMLSweepEntries are the per-core IML capacities swept in the
// Fig. 11 reproduction.
func DefaultIMLSweepEntries() []int {
	return []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
}

// IMLCapacitySweep reports the Fig. 11 curve for one workload: predictor
// coverage at each per-core IML capacity in entriesList (the default sweep
// when empty; entries <= 0 means unbounded).
//
// Each point models a bounded circular IML per core, a perfect
// (unbounded, precise) index table, and Recent-policy index updates — the
// Fig. 11 methodology, which isolates IML capacity from index effects.
// Per-core miss traces are interleaved round-robin to approximate
// concurrent execution; the index is shared, so one core may follow a
// stream another core logged.
//
// Capacity only bounds which log entries are alive: core c's log is
// always the prefix of its trace replayed so far, and the index is the
// same at every capacity. So one pass replays every capacity, and only
// the stream cursors and the alive-window test differ between them.
func IMLCapacitySweep(perCore [][]isa.Block, entriesList []int) []IMLCapacityPoint {
	if len(entriesList) == 0 {
		entriesList = DefaultIMLSweepEntries()
	}
	nc, nk := len(perCore), len(entriesList)
	ids, n := denseIDs(perCore...)

	// A log position: idx is the append index within core's log.
	type pos struct{ core, idx int32 }
	idle := pos{core: -1}
	// index[id] is the latest logged position of the block.
	index := filled(n, idle)
	// cur[c*nk+k] is core c's active stream at capacity k: the log
	// position it predicts next.
	cur := filled(nc*nk, idle)
	// next[c] counts the misses core c has logged, so its log is
	// ids[c][:next[c]]; a miss is logged only after it is processed.
	next := make([]int, nc)
	// alive reports whether log position idx of a log holding logged
	// entries is within the last entries of them.
	alive := func(idx int32, logged, entries int) bool {
		return int(idx) < logged && (entries <= 0 || int(idx) >= logged-entries)
	}

	covered := make([]uint64, nk)
	var total uint64
	for progressed := true; progressed; {
		progressed = false
		for c := 0; c < nc; c++ {
			if next[c] >= len(ids[c]) {
				continue
			}
			progressed = true
			m := ids[c][next[c]]
			total++
			found := index[m]
			for k, entries := range entriesList {
				p := &cur[c*nk+k]
				// Try to cover from the active stream within the SVB window.
				hit := false
				if p.core >= 0 {
					log := ids[p.core][:next[p.core]]
					for q := p.idx; q < p.idx+imlWindow && alive(q, len(log), entries); q++ {
						if log[q] == m {
							covered[k]++
							p.idx = q + 1
							hit = true
							break
						}
					}
				}
				if !hit {
					// Fresh lookup: follow the most recent occurrence.
					if found.core >= 0 && alive(found.idx, next[found.core], entries) {
						*p = pos{found.core, found.idx + 1}
					} else {
						*p = idle
					}
				}
			}
			// Log the miss and update the index (Recent policy).
			index[m] = pos{int32(c), int32(next[c])}
			next[c]++
		}
	}

	out := make([]IMLCapacityPoint, 0, nk)
	for k, entries := range entriesList {
		var cov float64
		if total > 0 {
			cov = float64(covered[k]) / float64(total)
		}
		out = append(out, IMLCapacityPoint{
			EntriesPerCore: entries,
			StorageKB:      IMLStorageKB(entries) * float64(nc),
			Coverage:       cov,
		})
	}
	return out
}
