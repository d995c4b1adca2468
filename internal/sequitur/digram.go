package sequitur

import "math/bits"

// digram is the key of one digram index entry: the two symbols' values,
// each a terminal or a rule id, and which of the two are rule ids. The
// kind bits keep rule k apart from terminal k for every uint64 terminal.
type digram struct {
	a, b uint64
	kind uint32
}

// Digram kind bits: the first or the second symbol is a rule reference.
const (
	aRule uint32 = 1 << iota
	bRule
)

// digramEntry is one slot of the table; sym == 0 marks it empty (arena
// slot 0 is never a symbol). It spells the key's fields out so that sym
// fills the padding after kind: 24 bytes, where embedding digram would
// take 32.
type digramEntry struct {
	a, b uint64
	kind uint32
	sym  int32
}

func (e *digramEntry) key() digram { return digram{e.a, e.b, e.kind} }

// digramTable maps each indexed digram to the arena index of its first
// symbol. It is open-addressed with linear probing, and a deletion
// shifts the entries after it back, so no tombstones accumulate. The
// table doubles when it becomes half full.
type digramTable struct {
	slots []digramEntry
	shift uint // 64 - log2(len(slots))
	n     int
}

// newDigramTable sizes the table for a grammar over n terminals. The
// index holds one entry per distinct digram, and the medium-scale miss
// traces index at most one digram for every three to six terminals
// (SEQUITUR folds the repeats), so the table starts at half the input
// length and doubles if a less repetitive input needs it.
func newDigramTable(n int) digramTable {
	size := 16
	for size < n/2 {
		size *= 2
	}
	return digramTable{slots: make([]digramEntry, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home returns the slot a key hashes to.
func (t *digramTable) home(k digram) uint64 {
	h := (k.a*0x9e3779b97f4a7c15 + k.b + uint64(k.kind)) * 0xbf58476d1ce4e5b9
	return h >> t.shift
}

func (t *digramTable) mask() uint64 { return uint64(len(t.slots) - 1) }

// find returns the slot holding k, or the empty slot where k belongs.
func (t *digramTable) find(k digram) uint64 {
	mask := t.mask()
	for i := t.home(k); ; i = (i + 1) & mask {
		if e := &t.slots[i]; e.sym == 0 || e.key() == k {
			return i
		}
	}
}

// findOrInsert returns the symbol indexed under k, or indexes s under k
// and returns 0.
func (t *digramTable) findOrInsert(k digram, s int32) int32 {
	i := t.find(k)
	if m := t.slots[i].sym; m != 0 {
		return m
	}
	t.insertAt(i, k, s)
	return 0
}

// set indexes s under k, replacing any previous entry.
func (t *digramTable) set(k digram, s int32) {
	i := t.find(k)
	if t.slots[i].sym != 0 {
		t.slots[i].sym = s
		return
	}
	t.insertAt(i, k, s)
}

// insertAt fills the empty slot i, growing the table past half full.
func (t *digramTable) insertAt(i uint64, k digram, s int32) {
	t.slots[i] = digramEntry{k.a, k.b, k.kind, s}
	t.n++
	if 2*t.n > len(t.slots) {
		t.grow()
	}
}

func (t *digramTable) grow() {
	old := t.slots
	t.slots = make([]digramEntry, 2*len(old))
	t.shift--
	mask := t.mask()
	for _, e := range old {
		if e.sym == 0 {
			continue
		}
		i := t.home(e.key())
		for t.slots[i].sym != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// deleteIf removes the entry for k if it indexes s.
func (t *digramTable) deleteIf(k digram, s int32) {
	i := t.find(k)
	if t.slots[i].sym != s {
		return
	}
	t.n--
	// Backward shift: move each later entry of the probe run into the
	// hole when the hole lies between its home slot and its slot.
	mask := t.mask()
	for j := i; ; {
		j = (j + 1) & mask
		e := &t.slots[j]
		if e.sym == 0 {
			break
		}
		if h := t.home(e.key()); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = *e
			i = j
		}
	}
	t.slots[i] = digramEntry{}
}
