package analysis

import "tifs/internal/isa"

// Stream lookup heuristic names (Fig. 6).
const (
	// PolicyFirst associates a head address with the first stream ever
	// observed to start there.
	PolicyFirst = "First"
	// PolicyDigram keys lookup on the head address plus the following
	// miss address.
	PolicyDigram = "Digram"
	// PolicyRecent re-associates a head address with its most recent
	// occurrence — the policy TIFS implements in hardware.
	PolicyRecent = "Recent"
	// PolicyLongest picks, among all remembered prior occurrences of the
	// head, the one whose continuation matches longest. Hardware cannot
	// implement it (length is known only after the fact); it upper-bounds
	// the single-lookup policies.
	PolicyLongest = "Longest"
)

// Policies lists the Fig. 6 heuristics in presentation order.
func Policies() []string {
	return []string{PolicyFirst, PolicyDigram, PolicyRecent, PolicyLongest}
}

// HeuristicResult reports the coverage of one lookup policy on a trace.
type HeuristicResult struct {
	// Policy is the heuristic name.
	Policy string
	// Covered is the number of misses predicted by following a
	// previously recorded stream.
	Covered uint64
	// Total is the trace length.
	Total uint64
}

// Coverage returns Covered/Total (0 for empty traces).
func (r HeuristicResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Total)
}

// longestOccs bounds the per-address occurrence memory of PolicyLongest.
const longestOccs = 12

// longestMatchCap bounds how far forward match lengths are compared.
const longestMatchCap = 512

// EvaluateHeuristics replays the miss sequence under every Fig. 6 lookup
// policy and counts covered misses, in Policies() order. The replay
// models stream following the way the hardware does: while a stream is
// active and predicts the next miss, the miss is covered and the stream
// advances; on a mismatch the policy performs a fresh lookup on the
// missing address.
//
// The policies differ only in their lookup and their stream cursor, so
// one pass over dense block ids advances all four cursors against shared
// history tables.
func EvaluateHeuristics(seq []isa.Block) []HeuristicResult {
	ids, n := denseIDs(seq)
	s := ids[0]

	// History tables over positions already replayed. first and recent
	// hold the first and latest position of each id. digram maps a packed
	// (id, next id) pair to the position of its latest occurrence. ring
	// keeps the last longestOccs positions of each id, written round-robin
	// at seen[id] % longestOccs, where seen counts all occurrences.
	first := filled(n, int32(-1))
	recent := filled(n, int32(-1))
	digram := make(map[uint64]int32)
	ring := make([]int32, n*longestOccs)
	seen := make([]int32, n)

	matchLen := func(p, i int) int {
		l := 0
		for l < longestMatchCap && p+l < len(s) && i+l < len(s) && s[p+l] == s[i+l] {
			l++
		}
		return l
	}
	// longest scans the remembered occurrences of s[i] oldest first and
	// keeps the first whose continuation matches strictly longest.
	longest := func(i int) int32 {
		m := s[i]
		k := int(seen[m])
		best, bestLen := int32(-1), 0
		for j := max(0, k-longestOccs); j < k; j++ {
			p := ring[int(m)*longestOccs+j%longestOccs]
			if l := matchLen(int(p)+1, i+1); l > bestLen {
				best, bestLen = p, l
			}
		}
		return best
	}

	// cursor[k] is the history position policy k's active stream predicts
	// next, -1 when idle, with k in Policies() order. It is always
	// strictly behind the position being processed (lookups only ever
	// return already-recorded positions).
	cursor := [4]int32{-1, -1, -1, -1}
	var covered [4]uint64
	for i, m := range s {
		for k, c := range cursor {
			if c >= 0 && s[c] == m {
				covered[k]++
				cursor[k]++
				continue
			}
			p := int32(-1)
			switch k {
			case 0: // First
				p = first[m]
			case 1: // Digram
				if i+1 < len(s) {
					if q, ok := digram[pairKey(m, s[i+1])]; ok {
						p = q
					}
				}
			case 2: // Recent
				p = recent[m]
			case 3: // Longest
				p = longest(i)
			}
			if p >= 0 {
				p++
			}
			cursor[k] = p
		}

		// Record this occurrence for future lookups.
		if first[m] < 0 {
			first[m] = int32(i)
		}
		if i > 0 {
			digram[pairKey(s[i-1], m)] = int32(i - 1)
		}
		recent[m] = int32(i)
		ring[int(m)*longestOccs+int(seen[m])%longestOccs] = int32(i)
		seen[m]++
	}

	out := make([]HeuristicResult, 0, len(cursor))
	for k, p := range Policies() {
		out = append(out, HeuristicResult{Policy: p, Covered: covered[k], Total: uint64(len(seq))})
	}
	return out
}

// pairKey packs two dense ids into one map key.
func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// denseIDs numbers the distinct blocks of seqs 0, 1, 2, ... in order of
// first appearance, so that per-block replay state can live in slices
// indexed by id. It returns each sequence rewritten as ids, and the
// number of distinct blocks.
func denseIDs(seqs ...[]isa.Block) ([][]int32, int) {
	num := make(map[isa.Block]int32)
	out := make([][]int32, len(seqs))
	for c, seq := range seqs {
		ids := make([]int32, len(seq))
		for i, b := range seq {
			id, ok := num[b]
			if !ok {
				id = int32(len(num))
				num[b] = id
			}
			ids[i] = id
		}
		out[c] = ids
	}
	return out, len(num)
}

// filled returns n copies of v.
func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}
