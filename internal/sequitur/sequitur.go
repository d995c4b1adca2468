// Package sequitur implements the SEQUITUR hierarchical grammar inference
// algorithm of Nevill-Manning and Witten (JAIR 1997), which the paper uses
// for its information-theoretic opportunity study (Section 4): repeated
// subsequences of the L1-I miss-address trace become grammar rules, so
// rules correspond exactly to recurring temporal instruction streams.
//
// The implementation follows the canonical linked-symbol formulation,
// maintaining the two SEQUITUR invariants online:
//
//	digram uniqueness — no pair of adjacent symbols occurs more than once
//	in the grammar;
//	rule utility — every rule other than the root is referenced at least
//	twice.
//
// Symbols live in one arena and link to each other by int32 index, and
// the digram index is an open-addressed table (digram.go), so building a
// grammar allocates a handful of slices rather than one object per
// symbol. Each rule is identified by the arena index of its guard, the
// sentinel symbol that closes the rule's circular list.
package sequitur

// Grammar incrementally builds a SEQUITUR grammar over a sequence of
// uint64 terminals (cache block numbers, in this repository).
type Grammar struct {
	// syms is the arena. Slot 0 is nil: it is marked as a guard, so
	// every test that treats a guard as "no symbol" treats nil alike.
	syms  []symbol
	free  int32 // head of the free-slot list, linked through next
	root  int32 // the root rule's guard
	index digramTable
	nSyms uint64
}

// symbol is one arena slot: a terminal (rule == 0), a non-terminal
// (rule > 0: the referenced rule's guard), or a rule's guard (rule ==
// guardMark). A guard's next and prev are its rule's first and last
// symbols, and its count is the number of non-terminals that reference
// the rule.
type symbol struct {
	next, prev int32
	rule       int32
	count      int32
	value      uint64 // terminal value; 0 otherwise
}

const guardMark = -1

// New returns an empty grammar with room for n terminals. The arena is
// sized for the most symbols a grammar over n terminals can hold at
// once, so building one never regrows it: each substitution replaces
// two symbols with one reference or moves symbols into a new rule, so
// at most n+2 symbols are live, and every live rule but the root has
// two or more of them.
func New(n int) *Grammar {
	if n < 0 {
		n = 0
	}
	g := &Grammar{
		syms:  make([]symbol, 1, n+n/2+8),
		index: newDigramTable(n),
	}
	g.syms[0].rule = guardMark
	g.root = g.newRule()
	return g
}

// alloc returns a zeroed slot, reusing freed ones first.
func (g *Grammar) alloc() int32 {
	if i := g.free; i != 0 {
		g.free = g.syms[i].next
		g.syms[i] = symbol{}
		return i
	}
	g.syms = append(g.syms, symbol{})
	return int32(len(g.syms) - 1)
}

// release returns a slot that no symbol, rule or index entry refers to.
func (g *Grammar) release(i int32) {
	g.syms[i] = symbol{next: g.free}
	g.free = i
}

func (g *Grammar) newRule() int32 {
	r := g.alloc()
	g.syms[r] = symbol{next: r, prev: r, rule: guardMark}
	return r
}

func (g *Grammar) isGuard(s int32) bool { return g.syms[s].rule == guardMark }

// key returns the digram key of (s, s.next). A guard keys like
// terminal 0.
func (g *Grammar) key(s int32) digram {
	a := &g.syms[s]
	b := &g.syms[a.next]
	var k digram
	if a.rule > 0 {
		k.a, k.kind = uint64(a.rule), aRule
	} else {
		k.a = a.value
	}
	if b.rule > 0 {
		k.b, k.kind = uint64(b.rule), k.kind|bRule
	} else {
		k.b = b.value
	}
	return k
}

// sameValue reports whether two symbols carry the same terminal/rule
// value; nil and guards match nothing.
func (g *Grammar) sameValue(a, b int32) bool {
	sa, sb := &g.syms[a], &g.syms[b]
	if sa.rule == guardMark || sb.rule == guardMark {
		return false
	}
	return sa.rule == sb.rule && sa.value == sb.value
}

// deleteDigram removes the (s, s.next) entry if it points at s.
func (g *Grammar) deleteDigram(s int32) {
	if g.isGuard(s) || g.isGuard(g.syms[s].next) {
		return
	}
	g.index.deleteIf(g.key(s), s)
}

// join links left-right, maintaining the digram index including the
// triple corner cases ("aaa") from the original paper's appendix.
func (g *Grammar) join(left, right int32) {
	if g.syms[left].next != 0 {
		g.deleteDigram(left)
		// Re-index digrams that the removal may have orphaned in runs of
		// identical symbols.
		if g.sameValue(right, g.syms[right].prev) && g.sameValue(right, g.syms[right].next) {
			g.index.set(g.key(right), right)
		}
		if p := g.syms[left].prev; g.sameValue(left, p) && g.sameValue(left, g.syms[left].next) {
			g.index.set(g.key(p), p)
		}
	}
	g.syms[left].next = right
	g.syms[right].prev = left
}

// insertAfter places n immediately after s.
func (g *Grammar) insertAfter(s, n int32) {
	g.join(n, g.syms[s].next)
	g.join(s, n)
}

// remove unlinks s from its rule, maintaining index and rule counts.
// The caller releases the slot.
func (g *Grammar) remove(s int32) {
	g.join(g.syms[s].prev, g.syms[s].next)
	if !g.isGuard(s) {
		g.deleteDigram(s)
		if r := g.syms[s].rule; r > 0 {
			g.syms[r].count--
		}
	}
}

// newTerminal wraps a value.
func (g *Grammar) newTerminal(v uint64) int32 {
	s := g.alloc()
	g.syms[s].value = v
	return s
}

// newNonTerminal wraps a rule reference, bumping its use count.
func (g *Grammar) newNonTerminal(r int32) int32 {
	s := g.alloc()
	g.syms[r].count++
	g.syms[s].rule = r
	return s
}

// clone copies a symbol's payload into a fresh slot.
func (g *Grammar) clone(s int32) int32 {
	if r := g.syms[s].rule; r > 0 {
		return g.newNonTerminal(r)
	}
	return g.newTerminal(g.syms[s].value)
}

// Append adds the next terminal of the input sequence to the grammar.
func (g *Grammar) Append(v uint64) {
	g.nSyms++
	last := g.syms[g.root].prev
	g.insertAfter(last, g.newTerminal(v))
	if last != g.root {
		g.check(last)
	}
}

// Len returns the number of terminals appended so far.
func (g *Grammar) Len() uint64 { return g.nSyms }

// check enforces digram uniqueness for the digram starting at s.
// It reports whether the digram triggered a substitution.
func (g *Grammar) check(s int32) bool {
	next := g.syms[s].next
	if g.isGuard(s) || g.isGuard(next) {
		return false
	}
	m := g.index.findOrInsert(g.key(s), s)
	if m == 0 {
		return false
	}
	if g.syms[m].next != s && next != m {
		g.match(s, m)
	}
	return true
}

// match folds the duplicate digrams at s and m into a rule.
func (g *Grammar) match(s, m int32) {
	var r int32
	if mp := g.syms[m].prev; g.isGuard(mp) && g.isGuard(g.syms[g.syms[m].next].next) {
		// m's rule body is exactly this digram: reuse it.
		r = mp
		g.substitute(s, r)
	} else {
		r = g.newRule()
		a := g.clone(s)
		g.insertAfter(r, a)
		g.insertAfter(a, g.clone(g.syms[s].next))
		g.substitute(m, r)
		g.substitute(s, r)
		first := g.syms[r].next
		g.index.set(g.key(first), first)
	}
	// Rule utility: a rule inside the new rule may have dropped to a
	// single use; inline it.
	if f := g.syms[r].next; g.syms[f].rule > 0 && g.syms[g.syms[f].rule].count == 1 {
		g.expand(f)
	}
}

// substitute replaces the digram (s, s.next) with a reference to r and
// re-checks the disturbed neighborhoods.
func (g *Grammar) substitute(s, r int32) {
	q := g.syms[s].prev
	g.remove(s)
	t := g.syms[q].next
	g.remove(t)
	g.release(s)
	g.release(t)
	g.insertAfter(q, g.newNonTerminal(r))
	if !g.check(q) {
		g.check(g.syms[q].next)
	}
}

// expand inlines the body of a once-used rule in place of the symbol.
func (g *Grammar) expand(s int32) {
	left := g.syms[s].prev
	right := g.syms[s].next
	r := g.syms[s].rule
	f := g.syms[r].next
	l := g.syms[r].prev
	g.deleteDigram(s)
	// Unhook the rule guard so the body can be spliced in.
	g.join(left, f)
	g.join(l, right)
	g.index.set(g.key(l), l)
	// The rule is dead: nothing refers to its guard or to s any more.
	g.release(s)
	g.release(r)
}
