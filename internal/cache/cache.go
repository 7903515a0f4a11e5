// Package cache implements the processor cache model: a set-associative
// cache with configurable geometry, defaulting to the two caches of the
// paper's simulated machine:
//
//   - L1 data: 32 KB, direct-mapped, 32-byte lines, 1-cycle hit;
//   - L2 data: 256 KB, 2-way set-associative, 128-byte lines, 7-cycle hit.
//
// Indexing and write policy are the paper's and live in the machine
// (package sim), which passes each access's index and tag addresses: the
// L1 is virtually indexed and physically tagged, write-back and
// write-around (no allocate on store miss); the L2 is physically indexed
// and tagged, write-back and write-allocate.
//
// The model tracks tags and state only. Data values live in the simulated
// DRAM (package membuf) and stores update them functionally at execution
// time; write-back traffic is modeled in *timing and traffic accounting*
// (dirty evictions produce bus/DRAM activity). This is the standard
// trace-simulator factoring: the paper's measured quantities (hit ratios,
// cycles, bus bytes) depend on tag state, not on which copy of a byte is
// current. Cache-flush costs required by Impulse's consistency protocol
// are charged by the OS model (package kernel).
package cache

import (
	"fmt"

	"impulse/internal/bitutil"
)

// Config describes one cache level.
type Config struct {
	Name      string
	Bytes     uint64 // total capacity; power of two
	LineBytes uint64 // line size; power of two
	Ways      uint64 // associativity; power of two (1 = direct-mapped)
	HitCycles uint64 // access latency on hit
}

// L1Default returns the paper's L1 data-cache geometry.
func L1Default() Config {
	return Config{
		Name: "L1", Bytes: 32 << 10, LineBytes: 32, Ways: 1, HitCycles: 1,
	}
}

// L2Default returns the paper's L2 data-cache geometry.
func L2Default() Config {
	return Config{
		Name: "L2", Bytes: 256 << 10, LineBytes: 128, Ways: 2, HitCycles: 7,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !bitutil.IsPow2(c.Bytes) || !bitutil.IsPow2(c.LineBytes) || !bitutil.IsPow2(c.Ways) {
		return fmt.Errorf("cache %s: sizes must be powers of two: %+v", c.Name, c)
	}
	if c.LineBytes*c.Ways > c.Bytes {
		return fmt.Errorf("cache %s: capacity %d too small for %d ways of %d-byte lines",
			c.Name, c.Bytes, c.Ways, c.LineBytes)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() uint64 { return c.Bytes / (c.LineBytes * c.Ways) }

type line struct {
	lineAddr   uint64 // physical line number (full identity, not a partial tag)
	lastUse    uint64 // LRU clock value
	valid      bool
	dirty      bool
	prefetched bool // brought in by a prefetch and not yet demanded
}

// Cache models one level. It is purely a tag store; the orchestration of
// misses across levels lives in package sim.
type Cache struct {
	cfg       Config
	lines     []line // sets * ways, set-major
	lineShift uint
	setMask   uint64
	clock     uint64 // LRU clock
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Sets()*cfg.Ways),
		lineShift: bitutil.Log2(cfg.LineBytes),
		setMask:   cfg.Sets() - 1,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the physical line number of p.
func (c *Cache) LineAddr(p uint64) uint64 { return p >> c.lineShift }

// SetIndex returns the set selected by the index address (virtual for
// VIPT, physical for PIPT — the caller passes the right one).
func (c *Cache) SetIndex(indexAddr uint64) uint64 {
	return (indexAddr >> c.lineShift) & c.setMask
}

// set returns the global line index (set*ways) of the set selected by
// indexAddr and the set's lines.
func (c *Cache) set(indexAddr uint64) (int, []line) {
	base := int(c.SetIndex(indexAddr) * c.cfg.Ways)
	return base, c.lines[base : base+int(c.cfg.Ways)]
}

// LookupResult reports the outcome of a cache probe.
type LookupResult struct {
	Hit           bool
	WasPrefetched bool // the hit line had been prefetched and never used
	Slot          int  // global line index (set*ways+way) of the hit, else -1
}

// Lookup probes for the line containing paddr, indexed by indexAddr, and
// updates LRU state on a hit.
func (c *Cache) Lookup(indexAddr, paddr uint64) LookupResult {
	la := c.LineAddr(paddr)
	if c.cfg.Ways == 1 {
		// Direct-mapped: the candidate line is a single array slot.
		i := c.SetIndex(indexAddr)
		l := &c.lines[i]
		if l.valid && l.lineAddr == la {
			c.clock++
			l.lastUse = c.clock
			r := LookupResult{Hit: true, WasPrefetched: l.prefetched, Slot: int(i)}
			l.prefetched = false
			return r
		}
		return LookupResult{Slot: -1}
	}
	base := c.SetIndex(indexAddr) * c.cfg.Ways
	set := c.lines[base : base+c.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			c.clock++
			set[i].lastUse = c.clock
			r := LookupResult{Hit: true, WasPrefetched: set[i].prefetched, Slot: int(base) + i}
			set[i].prefetched = false
			return r
		}
	}
	return LookupResult{Slot: -1}
}

// Touch applies the LRU update of a Lookup hit to slot, a global line
// index (set*ways+way) known to hold a valid, non-prefetched line.
func (c *Cache) Touch(slot int) {
	c.clock++
	c.lines[slot].lastUse = c.clock
}

// SetDirty marks slot's line dirty, as a MarkDirty hit does. On a
// direct-mapped cache that is a MarkDirty hit's whole effect on a
// non-prefetched line: LRU state is never read with one way per set.
func (c *Cache) SetDirty(slot int) { c.lines[slot].dirty = true }

// Contains reports whether the line containing paddr is present, without
// touching LRU or prefetch state.
func (c *Cache) Contains(indexAddr, paddr uint64) bool {
	la := c.LineAddr(paddr)
	_, set := c.set(indexAddr)
	for _, l := range set {
		if l.valid && l.lineAddr == la {
			return true
		}
	}
	return false
}

// Eviction describes a victim line displaced by Insert.
type Eviction struct {
	Valid    bool
	Dirty    bool
	LineAddr uint64 // physical line number of the victim
}

// PAddr returns the victim's physical byte address.
func (e Eviction) PAddr(lineBytes uint64) uint64 { return e.LineAddr * lineBytes }

// Insert installs the line containing paddr (indexed by indexAddr),
// choosing an invalid way or the LRU victim. It returns the eviction (if
// any) and the global line index (set*ways+way) of the slot the line now
// occupies. If the line is already present it is refreshed in place (its
// dirty bit is preserved, ORed with the new one).
func (c *Cache) Insert(indexAddr, paddr uint64, dirty, prefetched bool) (Eviction, int) {
	la := c.LineAddr(paddr)
	base, set := c.set(indexAddr)
	c.clock++
	// Refresh in place if present.
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			set[i].lastUse = c.clock
			set[i].dirty = set[i].dirty || dirty
			set[i].prefetched = set[i].prefetched && prefetched
			return Eviction{}, base + i
		}
	}
	// Prefer an invalid way; otherwise evict the least recently used.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	l := &set[victim]
	ev := Eviction{Valid: l.valid, Dirty: l.valid && l.dirty, LineAddr: l.lineAddr}
	// Field by field: a composite literal is built on the stack and
	// copied out, and the CPU cannot forward those narrow stores into the
	// wide load of the copy.
	l.lineAddr = la
	l.lastUse = c.clock
	l.valid = true
	l.dirty = dirty
	l.prefetched = prefetched
	return ev, base + victim
}

// MarkDirty marks the line containing paddr dirty (store hit). It returns
// the global line index of the line's slot, or -1 if it was absent.
func (c *Cache) MarkDirty(indexAddr, paddr uint64) int {
	la := c.LineAddr(paddr)
	base, set := c.set(indexAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			set[i].dirty = true
			c.clock++
			set[i].lastUse = c.clock
			set[i].prefetched = false
			return base + i
		}
	}
	return -1
}

// FlushLine removes the line containing paddr (indexed by indexAddr) and
// reports the global line index of the slot it left (-1 if the line was
// absent) and whether it was dirty. A flush writes dirty data back (the
// caller accounts for the traffic); the line becomes invalid either way.
func (c *Cache) FlushLine(indexAddr, paddr uint64) (slot int, dirty bool) {
	la := c.LineAddr(paddr)
	base, set := c.set(indexAddr)
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			d := set[i].dirty
			set[i] = line{}
			return base + i, d
		}
	}
	return -1, false
}

// FlushAll invalidates every line, invoking fn for each valid line with
// its physical line number and dirty bit (for writeback accounting). fn
// may be nil.
func (c *Cache) FlushAll(fn func(lineAddr uint64, dirty bool)) {
	for i := range c.lines {
		if c.lines[i].valid {
			if fn != nil {
				fn(c.lines[i].lineAddr, c.lines[i].dirty)
			}
			c.lines[i] = line{}
		}
	}
}

// ValidLines returns the number of valid lines (test/diagnostic helper).
func (c *Cache) ValidLines() uint64 {
	var n uint64
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
