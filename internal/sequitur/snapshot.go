package sequitur

import "fmt"

// Sym is one grammar symbol in a snapshot: either a terminal value or a
// rule reference.
type Sym struct {
	// IsRule distinguishes rule references from terminals.
	IsRule bool
	// Rule is the referenced rule's snapshot index (valid when IsRule).
	Rule int
	// Value is the terminal value (valid when !IsRule).
	Value uint64
}

// RuleView is one production rule in a snapshot. Rule 0 is the root (the
// whole sequence); every other rule is a recurring subsequence — a
// temporal instruction stream in the paper's terms.
type RuleView struct {
	// ID is the snapshot index of the rule.
	ID int
	// Syms is the rule's right-hand side.
	Syms []Sym
	// Uses is the number of references to this rule from other rules
	// (0 for the root; >= 2 otherwise, by the utility invariant).
	Uses int
	// ExpLen is the rule's full expansion length in terminals.
	ExpLen uint64
}

// Snapshot is an immutable view of a grammar, with rules renumbered
// densely (dead rules dropped) and expansion lengths precomputed.
type Snapshot struct {
	// Rules holds the live rules; Rules[0] is the root.
	Rules []RuleView
}

// Snapshot captures the grammar's current state. The grammar remains
// usable afterwards.
func (g *Grammar) Snapshot() *Snapshot {
	// Collect live rules reachable from the root, numbered in the order
	// a breadth-first walk meets them; idx maps a guard's arena index to
	// its rule's snapshot index plus one.
	idx := make([]int32, len(g.syms))
	idx[g.root] = 1
	order := []int32{g.root}
	for i := 0; i < len(order); i++ {
		for s := g.syms[order[i]].next; s != order[i]; s = g.syms[s].next {
			if r := g.syms[s].rule; r > 0 && idx[r] == 0 {
				order = append(order, r)
				idx[r] = int32(len(order))
			}
		}
	}

	snap := &Snapshot{Rules: make([]RuleView, len(order))}
	for i, r := range order {
		n := 0
		for s := g.syms[r].next; s != r; s = g.syms[s].next {
			n++
		}
		rv := RuleView{ID: i, Uses: int(g.syms[r].count)}
		if n > 0 {
			rv.Syms = make([]Sym, 0, n)
		}
		for s := g.syms[r].next; s != r; s = g.syms[s].next {
			if ref := g.syms[s].rule; ref > 0 {
				rv.Syms = append(rv.Syms, Sym{IsRule: true, Rule: int(idx[ref] - 1)})
			} else {
				rv.Syms = append(rv.Syms, Sym{Value: g.syms[s].value})
			}
		}
		snap.Rules[i] = rv
	}

	// Expansion lengths, bottom-up via memoized recursion.
	memo := make([]uint64, len(snap.Rules))
	var expLen func(int) uint64
	expLen = func(id int) uint64 {
		if memo[id] > 0 {
			return memo[id]
		}
		var n uint64
		for _, s := range snap.Rules[id].Syms {
			if s.IsRule {
				n += expLen(s.Rule)
			} else {
				n++
			}
		}
		memo[id] = n
		return n
	}
	for i := range snap.Rules {
		snap.Rules[i].ExpLen = expLen(i)
	}
	return snap
}

// Expand returns the full terminal expansion of the given rule.
func (s *Snapshot) Expand(id int) []uint64 {
	if id < 0 || id >= len(s.Rules) {
		panic(fmt.Sprintf("sequitur: rule %d out of range", id))
	}
	out := make([]uint64, 0, s.Rules[id].ExpLen)
	var walk func(int)
	walk = func(r int) {
		for _, sym := range s.Rules[r].Syms {
			if sym.IsRule {
				walk(sym.Rule)
			} else {
				out = append(out, sym.Value)
			}
		}
	}
	walk(id)
	return out
}

// Sequence returns the original input sequence (the root expansion).
func (s *Snapshot) Sequence() []uint64 { return s.Expand(0) }

// NumRules returns the number of live rules including the root.
func (s *Snapshot) NumRules() int { return len(s.Rules) }

// CheckInvariants verifies digram uniqueness and rule utility on the
// snapshot; it is used by the test suite and returns a descriptive error
// on the first violation.
func (s *Snapshot) CheckInvariants() error {
	type dg struct {
		ar, br bool
		a, b   uint64
	}
	seen := make(map[dg][2]int)
	for _, r := range s.Rules {
		for i := 0; i+1 < len(r.Syms); i++ {
			a, b := r.Syms[i], r.Syms[i+1]
			k := dg{ar: a.IsRule, br: b.IsRule, a: a.Value, b: b.Value}
			if a.IsRule {
				k.a = uint64(a.Rule)
			}
			if b.IsRule {
				k.b = uint64(b.Rule)
			}
			if prev, ok := seen[k]; ok {
				// Overlapping occurrences inside runs of one symbol are
				// permitted (digram positions i and i+1 in "aaa").
				if prev[0] == r.ID && (i-prev[1]) == 1 && a == b {
					continue
				}
				return fmt.Errorf("sequitur: digram %+v occurs in rule %d@%d and rule %d@%d", k, prev[0], prev[1], r.ID, i)
			}
			seen[k] = [2]int{r.ID, i}
		}
	}
	uses := make([]int, len(s.Rules))
	for _, r := range s.Rules {
		for _, sym := range r.Syms {
			if sym.IsRule {
				uses[sym.Rule]++
			}
		}
	}
	for i, r := range s.Rules {
		if i == 0 {
			continue
		}
		if uses[i] < 2 {
			return fmt.Errorf("sequitur: rule %d used %d times (utility violation)", i, uses[i])
		}
		if uses[i] != r.Uses {
			return fmt.Errorf("sequitur: rule %d recorded uses %d != actual %d", i, r.Uses, uses[i])
		}
		if len(r.Syms) < 2 {
			return fmt.Errorf("sequitur: rule %d has %d symbols", i, len(r.Syms))
		}
	}
	return nil
}

// Build is a convenience constructing a grammar over seq and returning
// its snapshot.
func Build(seq []uint64) *Snapshot {
	g := New(len(seq))
	for _, v := range seq {
		g.Append(v)
	}
	return g.Snapshot()
}
