package analysis

import (
	"fmt"
	"math"
	"testing"

	"tifs/internal/isa"
	"tifs/internal/sequitur"
	"tifs/internal/trace"
	"tifs/internal/workload"
	"tifs/internal/xrand"
)

// blocks converts small ints to block numbers.
func blocks(vs ...int) []isa.Block {
	out := make([]isa.Block, len(vs))
	for i, v := range vs {
		out[i] = isa.Block(v)
	}
	return out
}

// heuristic picks one policy's result from the fused replay.
func heuristic(policy string, seq []isa.Block) HeuristicResult {
	for _, r := range EvaluateHeuristics(seq) {
		if r.Policy == policy {
			return r
		}
	}
	panic("analysis: unknown policy " + policy)
}

// imlCoverage is the coverage of one IML capacity (<= 0: unbounded).
func imlCoverage(perCore [][]isa.Block, entries int) float64 {
	return IMLCapacitySweep(perCore, []int{entries})[0].Coverage
}

// TestFig4Accounting reproduces the paper's Fig. 4 example: a stream
// w x y z occurring three times followed by never-repeating misses
// p q r s. Expected: 4 New (first occurrence), 2 Head + 6 Opportunity
// (two repeats), 4 Non-repetitive.
func TestFig4Accounting(t *testing.T) {
	const w, x, y, z, p, q, r, s = 10, 11, 12, 13, 20, 21, 22, 23
	seq := blocks(w, x, y, z, w, x, y, z, w, x, y, z, p, q, r, s)
	c := Categorize(seq)

	if got := c.Counts.Count(CatNew); got != 4 {
		t.Errorf("New = %d, want 4", got)
	}
	if got := c.Counts.Count(CatHead); got != 2 {
		t.Errorf("Head = %d, want 2", got)
	}
	if got := c.Counts.Count(CatOpportunity); got != 6 {
		t.Errorf("Opportunity = %d, want 6", got)
	}
	if got := c.Counts.Count(CatNonRepetitive); got != 4 {
		t.Errorf("Non-repetitive = %d, want 4", got)
	}
	if got := c.Counts.Total(); got != uint64(len(seq)) {
		t.Errorf("total %d != trace length %d", got, len(seq))
	}
	// Both repeats are 4-block streams.
	if c.StreamLengths.Total() != 2 || c.StreamLengths.Count(4) != 2 {
		t.Errorf("stream lengths: %+v", c.StreamLengths)
	}
}

func TestCategorizeTotalAlwaysMatches(t *testing.T) {
	rng := xrand.New(42)
	streams := make([][]isa.Block, 6)
	for i := range streams {
		streams[i] = make([]isa.Block, rng.Range(3, 40))
		for j := range streams[i] {
			streams[i][j] = isa.Block(i*1000 + j)
		}
	}
	var seq []isa.Block
	for k := 0; k < 200; k++ {
		seq = append(seq, streams[rng.Intn(len(streams))]...)
	}
	c := Categorize(seq)
	if got := c.Counts.Total(); got != uint64(len(seq)) {
		t.Fatalf("categorized %d misses, trace has %d", got, len(seq))
	}
	if c.RepetitiveFrac() < 0.9 {
		t.Errorf("highly repetitive trace classified %.2f repetitive", c.RepetitiveFrac())
	}
}

func TestCategorizeAllUnique(t *testing.T) {
	seq := make([]isa.Block, 200)
	for i := range seq {
		seq[i] = isa.Block(i)
	}
	c := Categorize(seq)
	if got := c.Counts.Count(CatNonRepetitive); got != 200 {
		t.Errorf("unique trace: Non-repetitive = %d, want 200", got)
	}
	if c.OpportunityFrac() != 0 {
		t.Errorf("unique trace has opportunity %f", c.OpportunityFrac())
	}
}

func TestCategorizeEmpty(t *testing.T) {
	c := Categorize(nil)
	if c.Counts.Total() != 0 || c.RepetitiveFrac() != 1 {
		t.Errorf("empty categorization: %+v", c.Counts)
	}
}

func TestHeuristicPerfectlyRepeatingStream(t *testing.T) {
	// One stream repeated 10 times back to back. The recorded history is
	// itself periodic, so once a replay locks on it covers every
	// subsequent miss *including* later heads (the stream continuation
	// predicts the next repetition). Only the first occurrence (5 misses)
	// and the first repeat's head are uncovered.
	var seq []isa.Block
	for r := 0; r < 10; r++ {
		seq = append(seq, blocks(1, 2, 3, 4, 5)...)
	}
	for _, p := range Policies() {
		res := heuristic(p, seq)
		want := uint64(50 - 5 - 1)
		if res.Covered != want {
			t.Errorf("%s: covered %d, want %d", p, res.Covered, want)
		}
	}
}

func TestHeuristicDivergentStreams(t *testing.T) {
	// Two streams share a head block (0) but diverge afterwards,
	// alternating, with unique noise between occurrences so replay cannot
	// ride the global periodicity: X = 0 1 2 3..., Y = 0 101 102...
	// Under strict alternation, Recent always picks the *other* stream
	// and pays a divergence miss per occurrence, as does First on Y
	// occurrences. Digram keys on (head, next) and Longest picks the
	// matching continuation, so both cover the divergence point too.
	var seq []isa.Block
	noise := 100000
	for r := 0; r < 12; r++ {
		seq = append(seq, blocks(0, 1, 2, 3, 4, 5)...)
		seq = append(seq, isa.Block(noise))
		noise++
		seq = append(seq, blocks(0, 101, 102, 103, 104, 105)...)
		seq = append(seq, isa.Block(noise))
		noise++
	}
	first := heuristic(PolicyFirst, seq)
	digram := heuristic(PolicyDigram, seq)
	recent := heuristic(PolicyRecent, seq)
	longest := heuristic(PolicyLongest, seq)

	if digram.Covered <= recent.Covered {
		t.Errorf("digram (%d) should beat recent (%d) on alternating streams", digram.Covered, recent.Covered)
	}
	if longest.Covered <= recent.Covered {
		t.Errorf("longest (%d) should beat recent (%d) on alternating streams", longest.Covered, recent.Covered)
	}
	if first.Covered > longest.Covered {
		t.Errorf("first (%d) should not beat longest (%d)", first.Covered, longest.Covered)
	}
}

func TestHeuristicRecentAdaptsToPhaseChange(t *testing.T) {
	// Stream A repeats, then the program phase changes and head 0
	// permanently continues into stream B. Recent adapts after one
	// occurrence; First never does.
	var seq []isa.Block
	for r := 0; r < 5; r++ {
		seq = append(seq, blocks(0, 1, 2, 3)...)
	}
	for r := 0; r < 20; r++ {
		seq = append(seq, blocks(0, 7, 8, 9)...)
	}
	first := heuristic(PolicyFirst, seq)
	recent := heuristic(PolicyRecent, seq)
	if recent.Covered <= first.Covered {
		t.Errorf("recent (%d) should beat first (%d) across a phase change", recent.Covered, first.Covered)
	}
}

func TestHeuristicEmptyAndCoverage(t *testing.T) {
	res := heuristic(PolicyRecent, nil)
	if res.Coverage() != 0 || res.Total != 0 {
		t.Errorf("empty = %+v", res)
	}
	res = HeuristicResult{Policy: "x", Covered: 25, Total: 100}
	if res.Coverage() != 0.25 {
		t.Errorf("Coverage = %f", res.Coverage())
	}
}

func TestEvaluateHeuristicsOrderingOnWorkload(t *testing.T) {
	spec, _ := workload.ByName("OLTP-DB2")
	g := workload.Build(spec, workload.ScaleSmall, 1)
	misses := trace.ExtractMisses(g.Sources()[0], 150_000, trace.ExtractorConfig{})
	seq := trace.Blocks(misses)
	if len(seq) < 500 {
		t.Fatalf("only %d misses extracted", len(seq))
	}

	results := EvaluateHeuristics(seq)
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Policy] = r.Coverage()
	}
	opp := Categorize(seq).OpportunityFrac()

	// Orderings: Longest is the best single-policy bound. In the paper's
	// drifting workloads Recent beats First; our synthetic workloads are
	// stationary, which mildly favors First, so we require Recent to be
	// competitive (within a few points) rather than strictly above — see
	// "Known deviations" in the README.
	if byName[PolicyLongest] < byName[PolicyRecent] {
		t.Errorf("Longest (%.3f) below Recent (%.3f)", byName[PolicyLongest], byName[PolicyRecent])
	}
	if byName[PolicyRecent] < byName[PolicyFirst]-0.06 {
		t.Errorf("Recent (%.3f) far below First (%.3f)", byName[PolicyRecent], byName[PolicyFirst])
	}
	// Single-lookup policies stay near or below the SEQUITUR opportunity;
	// the oracle-selection Longest can exceed it slightly (it may cover
	// partial repeats the grammar did not fold into rules) but never the
	// repetitive fraction.
	rep := Categorize(seq).RepetitiveFrac()
	for _, p := range Policies() {
		bound := opp + 0.05
		if p == PolicyLongest {
			bound = rep
		}
		if byName[p] > bound {
			t.Errorf("%s coverage %.3f exceeds bound %.3f", p, byName[p], bound)
		}
	}
	// Recent must be a usable policy on server workloads (small-scale
	// traces are heavily fragmented; medium-scale runs reach ~65-70%).
	if byName[PolicyRecent] < 0.25 {
		t.Errorf("Recent coverage %.3f is implausibly low", byName[PolicyRecent])
	}
}

func TestBranchLookaheadWindowSums(t *testing.T) {
	recs := []trace.MissRecord{
		{Branches: 0}, {Branches: 2}, {Branches: 3}, {Branches: 5}, {Branches: 7}, {Branches: 1},
	}
	h := BranchLookahead(recs, 4)
	// Windows: i=0: 2+3+5+7=17; i=1: 3+5+7+1=16. Two samples.
	if h.Total() != 2 {
		t.Fatalf("samples = %d, want 2", h.Total())
	}
	if h.Count(17) != 1 || h.Count(16) != 1 {
		t.Errorf("window sums wrong: %v", h.Values())
	}
}

func TestBranchLookaheadShortTrace(t *testing.T) {
	h := BranchLookahead([]trace.MissRecord{{Branches: 1}}, 4)
	if h.Total() != 0 {
		t.Errorf("short trace produced %d samples", h.Total())
	}
}

func TestBranchLookaheadDefaultDepth(t *testing.T) {
	recs := make([]trace.MissRecord, 10)
	for i := range recs {
		recs[i].Branches = 1
	}
	h := BranchLookahead(recs, 0)
	if h.Total() == 0 {
		t.Fatal("no samples with default depth")
	}
	for _, v := range h.Values() {
		if v != DefaultLookaheadMisses {
			t.Errorf("window sum = %d, want %d", v, DefaultLookaheadMisses)
		}
	}
	cdf := LookaheadCDF(h)
	if len(cdf) != len(LookaheadBuckets()) {
		t.Errorf("CDF has %d points", len(cdf))
	}
	// All sums are 4, so CDF at 4 must be 1.
	for _, pt := range cdf {
		if pt.X >= 4 && pt.P != 1 {
			t.Errorf("CDF(%d) = %f, want 1", pt.X, pt.P)
		}
		if pt.X < 4 && pt.P != 0 {
			t.Errorf("CDF(%d) = %f, want 0", pt.X, pt.P)
		}
	}
}

func TestIMLCoverageSingleRepeatingStream(t *testing.T) {
	var seq []isa.Block
	for r := 0; r < 20; r++ {
		for i := 0; i < 50; i++ {
			seq = append(seq, isa.Block(100+i))
		}
	}
	// Unbounded: everything after the first pass except heads is covered.
	cov := imlCoverage([][]isa.Block{seq}, 0)
	want := float64(19*49) / float64(20*50)
	if cov < want-0.02 || cov > want+0.02 {
		t.Errorf("unbounded coverage = %.3f, want ~%.3f", cov, want)
	}
	// IML smaller than the stream: the log wraps before the stream
	// recurs, so coverage collapses.
	covTiny := imlCoverage([][]isa.Block{seq}, 8)
	if covTiny > 0.2 {
		t.Errorf("tiny IML coverage = %.3f, should collapse", covTiny)
	}
}

func TestIMLCoverageMonotonicSweep(t *testing.T) {
	spec, _ := workload.ByName("Web-Zeus")
	g := workload.Build(spec, workload.ScaleSmall, 2)
	perCore := make([][]isa.Block, 2)
	for c, src := range g.Sources() {
		perCore[c] = trace.Blocks(trace.ExtractMisses(src, 80_000, trace.ExtractorConfig{}))
	}
	pts := IMLCapacitySweep(perCore, []int{256, 2048, 16384})
	if len(pts) != 3 {
		t.Fatalf("sweep points = %d", len(pts))
	}
	// Allow tiny non-monotonic wiggle, but the trend must rise.
	if pts[2].Coverage < pts[0].Coverage {
		t.Errorf("coverage not increasing: %.3f .. %.3f", pts[0].Coverage, pts[2].Coverage)
	}
	if pts[0].StorageKB >= pts[1].StorageKB {
		t.Error("storage not increasing with entries")
	}
}

func TestIMLCrossCoreSharing(t *testing.T) {
	// Core 0 logs a stream; core 1 then encounters it. With a shared
	// index, core 1 follows core 0's log.
	stream := blocks(1, 2, 3, 4, 5, 6, 7, 8)
	core0 := append(append([]isa.Block{}, stream...), stream...)
	core1 := append([]isa.Block{}, stream...)
	// Interleaving is round-robin per miss; core 1's occurrence overlaps
	// core 0's second pass, but the index already has entries from the
	// first pass.
	cov := imlCoverage([][]isa.Block{core0, core1}, 0)
	if cov < 0.5 {
		t.Errorf("cross-core coverage = %.3f, want majority", cov)
	}
}

func TestIMLStorageKB(t *testing.T) {
	// 8K entries * 39 bits = 39 KB per core (paper: ~40 KB/core).
	got := IMLStorageKB(8192)
	if got < 38 || got > 40 {
		t.Errorf("IMLStorageKB(8192) = %.1f, want ~39", got)
	}
}

func TestIMLCoverageEmpty(t *testing.T) {
	if imlCoverage(nil, 0) != 0 {
		t.Error("no cores should give 0")
	}
	if imlCoverage([][]isa.Block{{}}, 100) != 0 {
		t.Error("empty traces should give 0")
	}
}

// refEvaluateHeuristic is the one-policy-per-replay Fig. 6 kernel that
// EvaluateHeuristics replaced, kept verbatim as the reference the fused
// pass must match count for count.
func refEvaluateHeuristic(policy string, seq []isa.Block) HeuristicResult {
	res := HeuristicResult{Policy: policy, Total: uint64(len(seq))}

	first := make(map[isa.Block]int)
	recent := make(map[isa.Block]int)
	type dkey struct{ a, b isa.Block }
	digram := make(map[dkey]int)
	occs := make(map[isa.Block][]int)

	matchLen := func(p, i int) int {
		n := 0
		for n < longestMatchCap && p+n < len(seq) && i+n < len(seq) && seq[p+n] == seq[i+n] {
			n++
		}
		return n
	}

	lookup := func(i int) int {
		m := seq[i]
		switch policy {
		case PolicyFirst:
			if p, ok := first[m]; ok {
				return p
			}
		case PolicyRecent:
			if p, ok := recent[m]; ok {
				return p
			}
		case PolicyDigram:
			if i+1 < len(seq) {
				if p, ok := digram[dkey{m, seq[i+1]}]; ok {
					return p
				}
			}
		case PolicyLongest:
			best, bestLen := -1, 0
			for _, p := range occs[m] {
				if l := matchLen(p+1, i+1); l > bestLen {
					best, bestLen = p, l
				}
			}
			if best >= 0 {
				return best
			}
		default:
			panic("analysis: unknown policy " + policy)
		}
		return -1
	}

	// cursor is the history position the active stream predicts next; it
	// is always strictly behind the position being processed (lookups
	// only ever return already-recorded positions).
	cursor := -1
	for i, m := range seq {
		if cursor >= 0 && seq[cursor] == m {
			res.Covered++
			cursor++
		} else {
			if p := lookup(i); p >= 0 {
				cursor = p + 1
			} else {
				cursor = -1
			}
		}

		// Record this occurrence for future lookups.
		if _, ok := first[m]; !ok {
			first[m] = i
		}
		if i > 0 {
			digram[dkey{seq[i-1], m}] = i - 1
		}
		recent[m] = i
		if policy == PolicyLongest {
			o := append(occs[m], i)
			if len(o) > longestOccs {
				o = o[1:]
			}
			occs[m] = o
		}
	}
	return res
}

// refIMLCoverage is the one-capacity-per-replay Fig. 11 kernel that
// IMLCapacitySweep replaced, kept verbatim as the reference the fused
// pass must match bit for bit.
func refIMLCoverage(perCore [][]isa.Block, entries int) float64 {
	nc := len(perCore)
	if nc == 0 {
		return 0
	}

	type pos struct {
		core int
		idx  int // absolute append index within that core's IML
	}
	// Per-core logs (absolute; aliveness enforced against entries).
	logs := make([][]isa.Block, nc)
	index := make(map[isa.Block]pos)
	// Per-core active stream pointer (into some core's log), -1 idle.
	cur := make([]pos, nc)
	for i := range cur {
		cur[i] = pos{core: -1}
	}

	alive := func(p pos) bool {
		if p.core < 0 {
			return false
		}
		if entries <= 0 {
			return p.idx < len(logs[p.core])
		}
		return p.idx < len(logs[p.core]) && p.idx >= len(logs[p.core])-entries
	}

	var covered, total uint64
	next := make([]int, nc)
	for {
		progressed := false
		for c := 0; c < nc; c++ {
			if next[c] >= len(perCore[c]) {
				continue
			}
			progressed = true
			m := perCore[c][next[c]]
			next[c]++
			total++

			// Try to cover from the active stream within the SVB window.
			hit := false
			if cur[c].core >= 0 {
				p := cur[c]
				for w := 0; w < imlWindow; w++ {
					q := pos{core: p.core, idx: p.idx + w}
					if !alive(q) {
						break
					}
					if logs[q.core][q.idx] == m {
						covered++
						cur[c] = pos{core: q.core, idx: q.idx + 1}
						hit = true
						break
					}
				}
			}
			if !hit {
				// Fresh lookup: follow the most recent occurrence.
				if p, ok := index[m]; ok && alive(p) {
					cur[c] = pos{core: p.core, idx: p.idx + 1}
				} else {
					cur[c] = pos{core: -1}
				}
			}

			// Log the miss and update the index (Recent policy).
			logs[c] = append(logs[c], m)
			index[m] = pos{core: c, idx: len(logs[c]) - 1}
		}
		if !progressed {
			break
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// checkHeuristics asserts that the fused replay returns exactly the
// reference's covered count and total for every policy. The goldens
// print fig6 as one-decimal percentages, which can hide an off-by-one.
func checkHeuristics(t *testing.T, name string, seq []isa.Block) {
	t.Helper()
	got := EvaluateHeuristics(seq)
	if len(got) != len(Policies()) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(Policies()))
	}
	for k, p := range Policies() {
		if want := refEvaluateHeuristic(p, seq); got[k] != want {
			t.Errorf("%s: %s = %+v, reference %+v", name, p, got[k], want)
		}
	}
}

// checkIML asserts that the fused sweep returns the reference's coverage
// bit for bit at every capacity in entries.
func checkIML(t *testing.T, name string, perCore [][]isa.Block, entries []int) {
	t.Helper()
	pts := IMLCapacitySweep(perCore, entries)
	if len(entries) == 0 {
		entries = DefaultIMLSweepEntries()
	}
	if len(pts) != len(entries) {
		t.Fatalf("%s: %d points, want %d", name, len(pts), len(entries))
	}
	for k, n := range entries {
		want := refIMLCoverage(perCore, n)
		if math.Float64bits(pts[k].Coverage) != math.Float64bits(want) {
			t.Errorf("%s: entries=%d coverage %v, reference %v", name, n, pts[k].Coverage, want)
		}
		if pts[k].EntriesPerCore != n || pts[k].StorageKB != IMLStorageKB(n)*float64(len(perCore)) {
			t.Errorf("%s: entries=%d point %+v", name, n, pts[k])
		}
	}
}

// randomBlocks draws n blocks from an alphabet of k, so that short
// streams recur and diverge often.
func randomBlocks(rng *xrand.Rand, n, k int) []isa.Block {
	out := make([]isa.Block, n)
	for i := range out {
		out[i] = isa.Block(rng.Intn(k))
	}
	return out
}

func TestHeuristicsMatchReference(t *testing.T) {
	cases := map[string][]isa.Block{
		"empty":  nil,
		"one":    blocks(7),
		"two":    blocks(7, 7),
		"pair":   blocks(7, 8),
		"fig4":   blocks(10, 11, 12, 13, 10, 11, 12, 13, 10, 11, 12, 13, 20, 21, 22, 23),
		"ties":   blocks(1, 2, 1, 3, 1, 2, 1, 3, 1, 4, 1, 2, 1, 3),
		"phases": blocks(0, 1, 2, 3, 0, 1, 2, 3, 0, 7, 8, 9, 0, 7, 8, 9, 0, 1, 2),
	}
	// Block 0 recurs 40 times with varying continuations, so the Longest
	// ring wraps and its oldest-first scan order decides ties.
	var wrap []isa.Block
	for r := 0; r < 40; r++ {
		wrap = append(wrap, 0, isa.Block(1+r%5), isa.Block(1+r%3), isa.Block(1+r%7))
	}
	cases["ring-wraps"] = wrap
	// Three occurrences of head 0 continue for longestMatchCap,
	// longestMatchCap+1 and longestMatchCap+1 blocks before diverging. At
	// the third, both candidates match up to the cap and tie, and only the
	// older one misses the block past the cap.
	var capEdge []isa.Block
	for r, n := range []int{longestMatchCap, longestMatchCap + 1, longestMatchCap + 1} {
		capEdge = append(capEdge, 0)
		for j := 0; j < n; j++ {
			capEdge = append(capEdge, isa.Block(100+j))
		}
		capEdge = append(capEdge, isa.Block(10000+r))
	}
	cases["cap-tie"] = capEdge
	for name, seq := range cases {
		checkHeuristics(t, name, seq)
	}
	rng := xrand.New(7)
	for i := 0; i < 300; i++ {
		n, k := rng.Intn(200), 1+rng.Intn(12)
		checkHeuristics(t, fmt.Sprintf("random n=%d k=%d", n, k), randomBlocks(rng, n, k))
	}
}

func TestIMLCapacitySweepMatchesReference(t *testing.T) {
	caps := []int{0, 1, 2, 3, 4, 5, 8, 16}
	checkIML(t, "no cores", nil, caps)
	checkIML(t, "empty cores", [][]isa.Block{{}, {}}, caps)
	checkIML(t, "one miss", [][]isa.Block{blocks(3)}, caps)
	stream := blocks(1, 2, 3, 4, 5, 6, 7, 8)
	checkIML(t, "cross-core", [][]isa.Block{append(append([]isa.Block{}, stream...), stream...), stream}, caps)
	rng := xrand.New(11)
	for i := 0; i < 200; i++ {
		// Unequal core lengths: cores drop out of the round-robin at
		// different points, and a core may follow another's log.
		perCore := make([][]isa.Block, 1+rng.Intn(4))
		k := 1 + rng.Intn(16)
		for c := range perCore {
			perCore[c] = randomBlocks(rng, rng.Intn(150), k)
		}
		checkIML(t, fmt.Sprintf("random %d cores k=%d", len(perCore), k), perCore, caps)
	}
}

// smallTraces extracts a workload's per-core miss blocks at small scale,
// with the analysis experiments' per-core event budget.
func smallTraces(tb testing.TB, name string, cores int) [][]isa.Block {
	tb.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %s", name)
	}
	g := workload.Build(spec, workload.ScaleSmall, cores)
	perCore := make([][]isa.Block, cores)
	for c, src := range g.Sources() {
		perCore[c] = trace.Blocks(trace.ExtractMisses(src, workload.ScaleSmall.AnalysisEvents(), trace.ExtractorConfig{}))
	}
	return perCore
}

func TestReplaysMatchReferenceOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts 24 small-scale traces")
	}
	for _, spec := range workload.Suite() {
		perCore := smallTraces(t, spec.Name, 4)
		for c, seq := range perCore {
			checkHeuristics(t, fmt.Sprintf("%s core %d", spec.Name, c), seq)
		}
		checkIML(t, spec.Name, perCore, []int{0, 1, 4, 8})
		checkIML(t, spec.Name, perCore, nil)
	}
}

// FuzzHeuristicsMatchReference replays fuzzed small-alphabet sequences:
// the first byte sets the alphabet size, each later byte one block.
func FuzzHeuristicsMatchReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0})
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{2, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var seq []isa.Block
		if len(data) > 0 {
			k := 1 + int(data[0])%16
			for _, b := range data[1:] {
				seq = append(seq, isa.Block(int(b)%k))
			}
		}
		checkHeuristics(t, fmt.Sprint(seq), seq)
	})
}

// benchReplay extracts the 4-core small-scale OLTP-DB2 trace the replay
// benchmarks run over, and its total miss count.
func benchReplay(b *testing.B) ([][]isa.Block, int) {
	perCore := smallTraces(b, "OLTP-DB2", 4)
	misses := 0
	for _, seq := range perCore {
		misses += len(seq)
	}
	b.ReportAllocs()
	return perCore, misses
}

func BenchmarkEvaluateHeuristics(b *testing.B) {
	perCore, misses := benchReplay(b)
	for b.Loop() {
		for _, seq := range perCore {
			EvaluateHeuristics(seq)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*misses), "ns/miss")
}

func BenchmarkIMLCapacitySweep(b *testing.B) {
	perCore, misses := benchReplay(b)
	for b.Loop() {
		IMLCapacitySweep(perCore, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*misses), "ns/miss")
}

// BenchmarkCategorizeSnapshot categorizes the grammar of one medium-scale
// OLTP-DB2 core's miss trace, the per-core unit of Fig. 3, 5 and 6.
func BenchmarkCategorizeSnapshot(b *testing.B) {
	spec, _ := workload.ByName("OLTP-DB2")
	g := workload.Build(spec, workload.ScaleMedium, 4)
	recs := trace.ExtractMisses(g.Sources()[0], workload.ScaleMedium.AnalysisEvents(), trace.ExtractorConfig{})
	gr := sequitur.New(len(recs))
	for _, r := range recs {
		gr.Append(uint64(r.Block))
	}
	snap := gr.Snapshot()
	b.ReportAllocs()
	for b.Loop() {
		CategorizeSnapshot(snap)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/miss")
}
