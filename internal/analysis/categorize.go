// Package analysis implements the paper's offline studies over L1-I miss
// traces: the SEQUITUR-based opportunity categorization (Fig. 3, with the
// Fig. 4 accounting), recurring stream lengths (Fig. 5), stream lookup
// heuristics (Fig. 6), the fetch-directed-prefetching lookahead limit
// study (Fig. 10), and the IML capacity sweep (Fig. 11).
package analysis

import (
	"tifs/internal/isa"
	"tifs/internal/sequitur"
	"tifs/internal/stats"
)

// Miss categories of the Fig. 4 accounting.
const (
	// CatOpportunity: non-head misses of a recurring stream's repeat
	// occurrences — the misses TIFS can eliminate.
	CatOpportunity = "Opportunity"
	// CatHead: the first miss of each repeat occurrence, needed to
	// trigger stream lookup; not eliminable.
	CatHead = "Head"
	// CatNew: misses in the first occurrence of a stream that later
	// recurs; not eliminable (nothing recorded yet).
	CatNew = "New"
	// CatNonRepetitive: misses that never occur twice with the same
	// neighboring miss addresses.
	CatNonRepetitive = "Non-repetitive"
)

// Categorization is the result of the SEQUITUR opportunity study on one
// miss trace.
type Categorization struct {
	// Counts holds the four-way miss categorization.
	Counts *stats.Categories
	// StreamLengths records the expansion length of every repeat
	// occurrence of a recurring stream; its weighted CDF is the Fig. 5
	// curve.
	StreamLengths *stats.Histogram
	// Rules is the number of live grammar rules (excluding the root).
	Rules int
}

// OpportunityFrac returns the fraction of misses categorized as
// Opportunity.
func (c *Categorization) OpportunityFrac() float64 {
	return c.Counts.Fraction(CatOpportunity)
}

// RepetitiveFrac returns the fraction of misses that are part of a
// recurring stream (everything but Non-repetitive); the paper reports 94%
// on average.
func (c *Categorization) RepetitiveFrac() float64 {
	return 1 - c.Counts.Fraction(CatNonRepetitive)
}

// Categorize runs SEQUITUR over the miss-block sequence and classifies
// every miss per the paper's accounting (Section 4.2): terminals left at
// the grammar root never repeat with the same context and are
// Non-repetitive; the first walk through a rule is New; each subsequent
// occurrence contributes one Head and ExpLen-1 Opportunity misses.
func Categorize(seq []isa.Block) *Categorization {
	g := sequitur.New(len(seq))
	for _, b := range seq {
		g.Append(uint64(b))
	}
	return CategorizeSnapshot(g.Snapshot())
}

// CategorizeSnapshot classifies using an existing grammar snapshot.
func CategorizeSnapshot(snap *sequitur.Snapshot) *Categorization {
	out := &Categorization{
		Counts:        stats.NewCategories(CatOpportunity, CatHead, CatNew, CatNonRepetitive),
		StreamLengths: stats.NewHistogram(),
		Rules:         snap.NumRules() - 1,
	}
	seen := make([]bool, snap.NumRules())
	// The walk counts in locals: each Categories.Add is a map read and
	// write.
	var opportunity, head, fresh, nonRepetitive uint64

	// visit walks the first occurrence of a rule's body. Terminals at the
	// grammar root were never folded into any rule — they never repeat
	// with the same preceding or succeeding miss — so they are
	// Non-repetitive; terminals inside a rule belong to a recurring
	// stream's first occurrence and are New. Repeat occurrences of a rule
	// classify wholesale (one Head, rest Opportunity) without recursion.
	var visit func(id int, atRoot bool)
	visit = func(id int, atRoot bool) {
		terminals := &fresh
		if atRoot {
			terminals = &nonRepetitive
		}
		for _, sym := range snap.Rules[id].Syms {
			if !sym.IsRule {
				*terminals++
				continue
			}
			r := sym.Rule
			if !seen[r] {
				seen[r] = true
				visit(r, false)
				continue
			}
			exp := snap.Rules[r].ExpLen
			head++
			if exp > 1 {
				opportunity += exp - 1
			}
			out.StreamLengths.AddN(int(exp), 1)
		}
	}
	visit(0, true)
	out.Counts.Add(CatOpportunity, opportunity)
	out.Counts.Add(CatHead, head)
	out.Counts.Add(CatNew, fresh)
	out.Counts.Add(CatNonRepetitive, nonRepetitive)
	return out
}
