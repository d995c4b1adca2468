// Package flathash provides an open-addressed uint64 -> uint64 hash
// table for the simulator's hot lookup structures (the shared TIFS index
// table, prefetcher target/seen tables). Compared with a Go map it has a
// flat, pointer-free layout the GC never scans, O(1) clearing for reuse
// across pooled simulation runs, and no per-insert allocation once grown
// to steady-state size.
//
// The table uses Fibonacci hashing with linear probing and grows at 3/4
// load. Lookups and stores are deterministic; no operation depends on
// iteration order, so replacing a Go map with a Map cannot change any
// simulation result.
package flathash

// Map is an open-addressed uint64 -> uint64 hash table. The zero value
// is ready to use; call Grow to pre-size it from configuration.
type Map struct {
	keys []uint64
	vals []uint64
	used []bool
	n    int
	mask uint64
}

// hash spreads the key over the table with the 64-bit Fibonacci
// multiplier.
func hash(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

// Len returns the number of stored keys.
func (m *Map) Len() int { return m.n }

// Cap returns the current slot count (0 for an unsized table).
func (m *Map) Cap() int { return len(m.keys) }

// Grow ensures the table can hold at least capacity keys without
// rehashing. It is a no-op if the table is already large enough.
func (m *Map) Grow(capacity int) {
	if capacity <= 0 {
		return
	}
	slots := 16
	for slots*3/4 < capacity {
		slots <<= 1
	}
	if slots <= len(m.keys) {
		return
	}
	m.rehash(slots)
}

// rehash moves every live entry into a table of the given slot count
// (a power of two).
func (m *Map) rehash(slots int) {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, slots)
	m.vals = make([]uint64, slots)
	m.used = make([]bool, slots)
	m.mask = uint64(slots - 1)
	m.n = 0
	for i, u := range oldUsed {
		if u {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// Get returns the value stored under k.
func (m *Map) Get(k uint64) (uint64, bool) {
	if m.n == 0 {
		return 0, false
	}
	for i := hash(k) & m.mask; ; i = (i + 1) & m.mask {
		if !m.used[i] {
			return 0, false
		}
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
}

// Contains reports whether k is present.
func (m *Map) Contains(k uint64) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v under k, replacing any existing value.
func (m *Map) Put(k, v uint64) {
	if len(m.keys) == 0 || (m.n+1)*4 > len(m.keys)*3 {
		slots := 2 * len(m.keys)
		if slots < 16 {
			slots = 16
		}
		m.rehash(slots)
	}
	for i := hash(k) & m.mask; ; i = (i + 1) & m.mask {
		if !m.used[i] {
			m.keys[i] = k
			m.vals[i] = v
			m.used[i] = true
			m.n++
			return
		}
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
	}
}

// Reset removes every entry but keeps the table's capacity, so a pooled
// structure re-reaches steady state without reallocating.
func (m *Map) Reset() {
	if m.n == 0 {
		return
	}
	clear(m.used)
	m.n = 0
}
