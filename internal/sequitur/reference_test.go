package sequitur

// refGrammar is the pointer-linked SEQUITUR that the arena
// implementation replaced, kept as the reference model: each symbol is
// a heap object, and the digram index is a Go map. Grammar must build
// exactly the snapshots it builds.
type refGrammar struct {
	root   *refRule
	index  map[refDigram]*refSymbol
	nRules int
}

type refDigram struct {
	aRule, bRule bool
	a, b         uint64
}

type refRule struct {
	id    int
	guard *refSymbol
	count int // references from non-terminals
}

type refSymbol struct {
	next, prev *refSymbol
	value      uint64   // terminal value when r == nil
	r          *refRule // non-terminal: referenced rule
	owner      *refRule // set on guard symbols only: the rule they delimit
	g          *refGrammar
}

// newRefGrammar returns an empty grammar.
func newRefGrammar() *refGrammar {
	g := &refGrammar{index: make(map[refDigram]*refSymbol)}
	g.root = g.newRule()
	return g
}

func (g *refGrammar) newRule() *refRule {
	r := &refRule{id: g.nRules}
	g.nRules++
	guard := &refSymbol{owner: r, g: g}
	guard.next = guard
	guard.prev = guard
	r.guard = guard
	return r
}

func (r *refRule) first() *refSymbol { return r.guard.next }
func (r *refRule) last() *refSymbol  { return r.guard.prev }

func (s *refSymbol) isGuard() bool { return s.owner != nil }

func (s *refSymbol) nonTerminal() bool { return s.r != nil }

// key returns this symbol's digram-key component.
func (s *refSymbol) keyPart() (bool, uint64) {
	if s.r != nil {
		return true, uint64(s.r.id)
	}
	return false, s.value
}

// digramKey builds the key for the digram (s, s.next).
func (s *refSymbol) digramKey() refDigram {
	ar, a := s.keyPart()
	br, b := s.next.keyPart()
	return refDigram{aRule: ar, a: a, bRule: br, b: b}
}

// refSameValue reports whether two symbols carry the same terminal/rule value.
func refSameValue(a, b *refSymbol) bool {
	if a == nil || b == nil || a.isGuard() || b.isGuard() {
		return false
	}
	ar, av := a.keyPart()
	br, bv := b.keyPart()
	return ar == br && av == bv
}

// deleteDigram removes the (s, s.next) entry if it points at s.
func (s *refSymbol) deleteDigram() {
	if s.isGuard() || s.next == nil || s.next.isGuard() {
		return
	}
	k := s.digramKey()
	if s.g.index[k] == s {
		delete(s.g.index, k)
	}
}

// refJoin links left-right, maintaining the digram index including the
// triple corner cases ("aaa") from the original paper's appendix.
func refJoin(left, right *refSymbol) {
	g := left.g
	if left.next != nil {
		left.deleteDigram()
		// Re-index digrams that the removal may have orphaned in runs of
		// identical symbols.
		if refSameValue(right, right.prev) && refSameValue(right, right.next) {
			g.index[right.digramKey()] = right
		}
		if refSameValue(left, left.prev) && refSameValue(left, left.next) {
			g.index[left.prev.digramKey()] = left.prev
		}
	}
	left.next = right
	right.prev = left
}

// insertAfter places n immediately after s.
func (s *refSymbol) insertAfter(n *refSymbol) {
	refJoin(n, s.next)
	refJoin(s, n)
}

// remove unlinks s from its rule, maintaining index and rule counts.
func (s *refSymbol) remove() {
	refJoin(s.prev, s.next)
	if !s.isGuard() {
		s.deleteDigram()
		if s.nonTerminal() {
			s.r.count--
		}
	}
}

// newTerminal wraps a value.
func (g *refGrammar) newTerminal(v uint64) *refSymbol {
	return &refSymbol{value: v, g: g}
}

// newNonTerminal wraps a rule reference, bumping its use count.
func (g *refGrammar) newNonTerminal(r *refRule) *refSymbol {
	r.count++
	return &refSymbol{r: r, g: g}
}

// clone copies a symbol's payload into a fresh node.
func (g *refGrammar) clone(s *refSymbol) *refSymbol {
	if s.nonTerminal() {
		return g.newNonTerminal(s.r)
	}
	return g.newTerminal(s.value)
}

// Append adds the next terminal of the input sequence to the grammar.
func (g *refGrammar) Append(v uint64) {
	last := g.root.last()
	g.root.last().insertAfter(g.newTerminal(v))
	if last != g.root.guard {
		last.check()
	}
}

// check enforces digram uniqueness for the digram starting at s.
// It reports whether the digram triggered a substitution.
func (s *refSymbol) check() bool {
	if s.isGuard() || s.next.isGuard() {
		return false
	}
	k := s.digramKey()
	m, ok := s.g.index[k]
	if !ok {
		s.g.index[k] = s
		return false
	}
	if m.next != s && s.next != m {
		s.match(m)
	}
	return true
}

// match folds the duplicate digrams at s and m into a rule.
func (s *refSymbol) match(m *refSymbol) {
	g := s.g
	var r *refRule
	if m.prev.isGuard() && m.next.next.isGuard() {
		// m's rule body is exactly this digram: reuse it.
		r = m.prev.owner
		s.substitute(r)
	} else {
		r = g.newRule()
		r.last().insertAfter(g.clone(s))
		r.last().insertAfter(g.clone(s.next))
		m.substitute(r)
		s.substitute(r)
		g.index[r.first().digramKey()] = r.first()
	}
	// Rule utility: a rule inside the new rule may have dropped to a
	// single use; inline it.
	if f := r.first(); f.nonTerminal() && f.r.count == 1 {
		f.expand()
	}
}

// substitute replaces the digram (s, s.next) with a reference to r and
// re-checks the disturbed neighborhoods.
func (s *refSymbol) substitute(r *refRule) {
	g := s.g
	q := s.prev
	s.remove()
	q.next.remove()
	q.insertAfter(g.newNonTerminal(r))
	if !q.check() {
		q.next.check()
	}
}

// expand inlines the body of a once-used rule in place of the symbol.
func (s *refSymbol) expand() {
	g := s.g
	left := s.prev
	right := s.next
	r := s.r
	f := r.first()
	l := r.last()
	s.deleteDigram()
	// Unhook the rule guard so the body can be spliced in.
	refJoin(left, f)
	refJoin(l, right)
	g.index[l.digramKey()] = l
	r.count = 0
	r.guard = nil // rule is dead
}

// Snapshot is Grammar.Snapshot over the reference model.
func (g *refGrammar) Snapshot() *Snapshot {
	// Collect live rules reachable from the root (expand leaves dead
	// rules behind by design).
	idx := map[*refRule]int{g.root: 0}
	order := []*refRule{g.root}
	for i := 0; i < len(order); i++ {
		for s := order[i].first(); !s.isGuard(); s = s.next {
			if s.nonTerminal() {
				if _, ok := idx[s.r]; !ok {
					idx[s.r] = len(order)
					order = append(order, s.r)
				}
			}
		}
	}

	snap := &Snapshot{Rules: make([]RuleView, len(order))}
	for i, r := range order {
		rv := RuleView{ID: i, Uses: r.count}
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.nonTerminal() {
				rv.Syms = append(rv.Syms, Sym{IsRule: true, Rule: idx[s.r]})
			} else {
				rv.Syms = append(rv.Syms, Sym{Value: s.value})
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

// refBuild is Build over the reference model.
func refBuild(seq []uint64) *Snapshot {
	g := newRefGrammar()
	for _, v := range seq {
		g.Append(v)
	}
	return g.Snapshot()
}
