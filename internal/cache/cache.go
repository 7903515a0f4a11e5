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
	lastUse    uint64 // LRU clock value; 0 exactly when the line is invalid
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
	// Slot is the global line index (set*ways+way) of the hit or, on a
	// miss, of the slot a fill would take (see Probe).
	Slot int
}

// Lookup probes for the line containing paddr, indexed by indexAddr, and
// updates LRU state on a hit. A miss reports the slot Fill should take,
// found in the same pass, and touches nothing.
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
		return LookupResult{Slot: int(i)}
	}
	// Probe's pass, repeated: Lookup runs on every L1 miss, and calling
	// a shared set loop here read about 15 % slower on BenchmarkSimL2Hit.
	base, set := c.set(indexAddr)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.valid && l.lineAddr == la {
			c.clock++
			l.lastUse = c.clock
			r := LookupResult{Hit: true, WasPrefetched: l.prefetched, Slot: base + i}
			l.prefetched = false
			return r
		}
		if l.lastUse < oldest {
			victim, oldest = i, l.lastUse
		}
	}
	return LookupResult{Slot: base + victim}
}

// Probe reports the slot holding the line containing paddr (indexed by
// indexAddr) and true, or the slot a fill of that line would take and
// false. It touches no state. The fill slot is the first invalid way,
// else the least recently used one; Fill(slot, ...) after a miss
// installs the line there, provided nothing changes the set in between.
func (c *Cache) Probe(indexAddr, paddr uint64) (slot int, hit bool) {
	la := c.LineAddr(paddr)
	if c.cfg.Ways == 1 {
		i := c.SetIndex(indexAddr)
		l := &c.lines[i]
		return int(i), l.valid && l.lineAddr == la
	}
	// An invalid way's lastUse is 0 and a valid way's at least 1, so the
	// first way of least lastUse is the first invalid way, else the least
	// recently used.
	base, set := c.set(indexAddr)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].lineAddr == la {
			return base + i, true
		}
		if set[i].lastUse < oldest {
			victim, oldest = i, set[i].lastUse
		}
	}
	return base + victim, false
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

// Eviction describes a victim line displaced by Fill.
type Eviction struct {
	Valid    bool
	Dirty    bool
	LineAddr uint64 // physical line number of the victim
}

// PAddr returns the victim's physical byte address.
func (e Eviction) PAddr(lineBytes uint64) uint64 { return e.LineAddr * lineBytes }

// Fill installs the line containing paddr in slot, a global line index
// that a Lookup, Probe or MarkDirty of that line reported as its miss's
// fill slot, and returns the line it displaced. It does not search: the
// caller vouches that the line is absent and that the set has not
// changed since the probe.
func (c *Cache) Fill(slot int, paddr uint64, dirty, prefetched bool) Eviction {
	c.clock++
	l := &c.lines[slot]
	ev := Eviction{Valid: l.valid, Dirty: l.valid && l.dirty, LineAddr: l.lineAddr}
	// Field by field: a composite literal is built on the stack and
	// copied out, and the CPU cannot forward those narrow stores into the
	// wide load of the copy.
	l.lineAddr = c.LineAddr(paddr)
	l.lastUse = c.clock
	l.valid = true
	l.dirty = dirty
	l.prefetched = prefetched
	return ev
}

// MarkDirty marks the line containing paddr dirty (store hit) and
// reports its slot and true. A miss touches nothing and reports, as
// Probe does, the slot a fill of the line would take and false.
func (c *Cache) MarkDirty(indexAddr, paddr uint64) (slot int, hit bool) {
	la := c.LineAddr(paddr)
	base, set := c.set(indexAddr)
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.valid && l.lineAddr == la {
			l.dirty = true
			c.clock++
			l.lastUse = c.clock
			l.prefetched = false
			return base + i, true
		}
		if l.lastUse < oldest {
			victim, oldest = i, l.lastUse
		}
	}
	return base + victim, false
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
