// Package cache implements the set-associative cache model used for the
// L1 instruction caches and the shared L2 of the simulated CMP (Table II:
// split 64 KB 2-way L1s, 8 MB 16-way L2, 64-byte blocks).
//
// The model is functional: it tracks presence and replacement state, not
// timing. Timing lives in internal/cpu and internal/uncore, which consult
// this model for hit/miss decisions.
package cache

import (
	"fmt"

	"tifs/internal/isa"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
}

// Validate checks the configuration for consistency: capacity must be a
// positive multiple of Assoc cache blocks and yield a power-of-two number
// of sets (required for index extraction).
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive size or associativity: %+v", c)
	}
	blocks := c.SizeBytes / isa.BlockBytes
	if blocks*isa.BlockBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of block size", c.SizeBytes)
	}
	if blocks%c.Assoc != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by assoc %d", blocks, c.Assoc)
	}
	sets := blocks / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets is not a power of two", sets)
	}
	return nil
}

type way struct {
	tag   uint64
	valid bool
	used  uint64 // global LRU stamp
}

// Cache is a set-associative cache with true-LRU replacement over block
// addresses. Ways are stored as one flat array indexed set*assoc so the
// hot lookup path is a single bounds-checked slice scan.
type Cache struct {
	cfg     Config
	ways    []way
	assoc   int
	setMask uint64
	clock   uint64
}

// New builds a cache; it panics on an invalid configuration (sizes are
// static simulator parameters, so misconfiguration is a programming
// error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / isa.BlockBytes / cfg.Assoc
	return &Cache{
		cfg:     cfg,
		ways:    make([]way, numSets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(numSets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset empties the cache, restoring the state a freshly constructed
// cache of the same geometry would have. Pooled simulation runs reuse
// the ways array instead of reallocating it.
func (c *Cache) Reset() {
	clear(c.ways)
	c.clock = 0
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.ways) / c.assoc }

// set returns the flat-array slice holding b's set.
func (c *Cache) set(b isa.Block) []way {
	base := int(uint64(b)&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc]
}

// find returns the way holding b, or nil.
func (c *Cache) find(b isa.Block) *way {
	tag := uint64(b)
	s := c.set(b)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

// lookup scans b's set once. It returns the way holding b, or, when b
// is absent, the way a fill of b replaces: the first invalid way, else
// the least recently used one. Ways fill in order and are only ever
// invalidated all together (Reset), so the invalid ways of a set are a
// suffix of it and the scan can stop at the first.
func (c *Cache) lookup(b isa.Block) (w *way, hit bool) {
	s := c.set(b)
	victim := &s[0]
	for i := range s {
		if !s[i].valid {
			return &s[i], false
		}
		if s[i].tag == uint64(b) {
			return &s[i], true
		}
		if s[i].used < victim.used {
			victim = &s[i]
		}
	}
	return victim, false
}

// Access performs a demand lookup for b, updating LRU on a hit, and
// reports whether it hit. A miss does not fill; the caller decides when
// the fill completes (see Fill).
func (c *Cache) Access(b isa.Block) bool {
	c.clock++
	if w := c.find(b); w != nil {
		w.used = c.clock
		return true
	}
	return false
}

// Contains probes for b without touching LRU.
func (c *Cache) Contains(b isa.Block) bool { return c.find(b) != nil }

// Fill inserts b, evicting the LRU way if the set is full. It returns the
// evicted block and whether an eviction happened. Filling an already
// present block refreshes its LRU stamp only.
func (c *Cache) Fill(b isa.Block) (evicted isa.Block, ok bool) {
	c.clock++
	w, hit := c.lookup(b)
	if !hit && w.valid {
		evicted, ok = isa.Block(w.tag), true
	}
	w.tag, w.valid, w.used = uint64(b), true, c.clock
	return evicted, ok
}

// FillIfAbsent inserts b unless it is resident, in one set scan, and
// reports whether it inserted. Its clock and LRU effects are those of
// Contains followed, on a miss, by Fill: a resident block is left as it
// was.
func (c *Cache) FillIfAbsent(b isa.Block) bool {
	w, hit := c.lookup(b)
	if hit {
		return false
	}
	c.clock++
	w.tag, w.valid, w.used = uint64(b), true, c.clock
	return true
}
