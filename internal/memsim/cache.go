// Package memsim simulates the memory hierarchy of the three test systems
// at cache-line granularity: per-core L1/L2, a shared L3, and per-NUMA-
// domain memory controllers with bounded bandwidth. Its purpose is the
// paper's write-allocate (WA) evasion study (Fig. 4) and the node
// bandwidth measurements (Table I): it accounts every byte that crosses
// the memory interface, under four write-miss policies:
//
//   - always-allocate (classic write-allocate: read-for-ownership, then
//     eventual writeback — 2 bytes of traffic per byte stored),
//   - automatic cache-line claim (Neoverse V2 / Grace: a streaming
//     detector recognizes full-line overwrites and claims lines without
//     reading them),
//   - SpecI2M (Intel Ice Lake+/SPR: the controller converts RFOs to I2M
//     ownership requests, but only once the memory interface is close to
//     saturation, and only for a bounded share of misses),
//   - non-temporal stores (write-combining buffers that bypass the cache
//     hierarchy; perfect on Zen 4, with a residual RFO fraction on SPR).
package memsim

// LineAddr is a cache-line-granular address.
type LineAddr uint64

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int64
	Ways      int
	LineBytes int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	if c.Ways <= 0 || c.LineBytes <= 0 {
		return 0
	}
	s := c.SizeBytes / int64(c.Ways) / int64(c.LineBytes)
	if s < 1 {
		return 1
	}
	return int(s)
}

// Cache is a set-associative write-back cache with LRU replacement. Its
// state is three flat arrays indexed set*ways+way, so the ways of a set
// are contiguous and a probe touches one short run of memory.
type Cache struct {
	cfg   CacheConfig
	nsets uint64
	clock uint64
	// tags holds tag+1 per way; 0 marks an invalid way.
	tags []uint64
	// lru is a per-cache sequence number per way; larger = more
	// recently used.
	lru   []uint64
	dirty []bool

	// Stats.
	Hits, Misses   int64
	Evictions      int64
	DirtyEvictions int64
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) *Cache {
	n := cfg.Sets() * cfg.Ways
	return &Cache{
		cfg:   cfg,
		nsets: uint64(cfg.Sets()),
		tags:  make([]uint64, n),
		lru:   make([]uint64, n),
		dirty: make([]bool, n),
	}
}

// reset empties the cache in place.
func (c *Cache) reset() {
	clear(c.tags)
	clear(c.lru)
	clear(c.dirty)
	c.clock = 0
	c.Hits, c.Misses, c.Evictions, c.DirtyEvictions = 0, 0, 0, 0
}

// locate returns the set index of a line and the tag+1 it is stored as.
func (c *Cache) locate(a LineAddr) (set, key uint64) {
	q := uint64(a) / c.nsets
	return uint64(a) - q*c.nsets, q + 1
}

// Lookup probes the cache; on a hit it updates LRU state and, for writes,
// the dirty bit.
func (c *Cache) Lookup(a LineAddr, write bool) bool {
	set, key := c.locate(a)
	base := int(set) * c.cfg.Ways
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == key {
			c.clock++
			c.lru[base+i] = c.clock
			if write {
				c.dirty[base+i] = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert allocates a line (marking it dirty for writes) and returns the
// evicted victim, if any. evictedDirty reports whether the victim needs a
// writeback. One scan of the set picks the way: the first invalid way,
// or else the lowest-index way with the smallest LRU stamp.
func (c *Cache) Insert(a LineAddr, dirty bool) (victim LineAddr, evicted, evictedDirty bool) {
	set, key := c.locate(a)
	base := int(set) * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	lru := c.lru[base : base+c.cfg.Ways]
	c.clock++
	v := 0
	for i, t := range tags {
		if t == 0 {
			v = base + i
			c.tags[v], c.lru[v], c.dirty[v] = key, c.clock, dirty
			return 0, false, false
		}
		if lru[i] < lru[v] {
			v = i
		}
	}
	v += base
	victimAddr := LineAddr((c.tags[v]-1)*c.nsets + set)
	wasDirty := c.dirty[v]
	c.tags[v], c.lru[v], c.dirty[v] = key, c.clock, dirty
	c.Evictions++
	if wasDirty {
		c.DirtyEvictions++
	}
	return victimAddr, true, wasDirty
}

// FlushDirty visits every dirty line in set order, invokes fn, and marks
// it clean.
func (c *Cache) FlushDirty(fn func(LineAddr)) {
	for w, t := range c.tags {
		if t != 0 && c.dirty[w] {
			fn(LineAddr((t-1)*c.nsets + uint64(w/c.cfg.Ways)))
			c.dirty[w] = false
		}
	}
}
