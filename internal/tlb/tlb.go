// Package tlb implements a fully-associative translation lookaside buffer
// with not-recently-used (NRU) replacement, matching the paper's simulated
// machine: "The TLB's are unified I/D, single-cycle, and fully associative,
// with a not-recently-used replacement policy."
//
// The same structure serves two masters: the processor MMU's TLB
// (virtual page -> physical frame) and the Impulse controller's PgTbl
// ("an on-chip TLB backed by main memory", pseudo-virtual page -> physical
// frame). Both are maps from a page number to a frame number, so the type
// is generic over the meaning of its keys.
package tlb

import (
	"fmt"

	"impulse/internal/bitutil"
)

// TLB is a fully-associative page-number -> frame-number cache with NRU
// replacement.
type TLB struct {
	entries []entry
	// index maps key -> entry slot in O(1). It only accelerates the
	// search: hits, misses and NRU replacement are decided by entries.
	index  bitutil.Table[int32]
	misses uint64
	hits   uint64
}

type entry struct {
	key   uint64
	value uint64
	valid bool
	ref   bool
}

// New creates a TLB with the given number of entries.
func New(capacity int) *TLB {
	if capacity <= 0 {
		panic(fmt.Sprintf("tlb: non-positive capacity %d", capacity))
	}
	t := &TLB{entries: make([]entry, capacity)}
	t.index.Init(capacity)
	return t
}

// Capacity returns the number of entries.
func (t *TLB) Capacity() int { return len(t.entries) }

// Lookup searches for key; on a hit it sets the entry's referenced bit.
func (t *TLB) Lookup(key uint64) (value uint64, ok bool) {
	if i, found := t.index.Get(key); found && t.entries[i].valid {
		t.entries[i].ref = true
		t.hits++
		return t.entries[i].value, true
	}
	t.misses++
	return 0, false
}

// Insert installs key -> value, replacing per NRU if the TLB is full:
// the first entry with a clear referenced bit is the victim; if every
// referenced bit is set, all are cleared first (the classic NRU sweep).
func (t *TLB) Insert(key, value uint64) {
	if i, found := t.index.Get(key); found {
		t.entries[i].value = value
		t.entries[i].valid = true
		t.entries[i].ref = true
		return
	}
	var victim int
	if t.index.Len() < len(t.entries) {
		// The index holds exactly the valid entries, so an invalid one
		// exists: take the first.
		for t.entries[victim].valid {
			victim++
		}
	} else {
		victim = t.nruVictim()
		t.index.Delete(t.entries[victim].key)
	}
	t.entries[victim] = entry{key: key, value: value, valid: true, ref: true}
	t.index.Put(key, int32(victim))
}

// nruVictim picks the victim in a full TLB: the first entry with a clear
// referenced bit, else entry 0 after clearing every bit.
func (t *TLB) nruVictim() int {
	for i := range t.entries {
		if !t.entries[i].ref {
			return i
		}
	}
	// All referenced: clear every bit and take the first entry.
	for i := range t.entries {
		t.entries[i].ref = false
	}
	return 0
}

// Invalidate removes key if present.
func (t *TLB) Invalidate(key uint64) {
	if i, found := t.index.Get(key); found {
		t.entries[i] = entry{}
		t.index.Delete(key)
	}
}

// InvalidateAll empties the TLB (used when remappings change).
func (t *TLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.index.Reset()
}

// Hits returns the number of successful lookups.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of failed lookups.
func (t *TLB) Misses() uint64 { return t.misses }

// Valid returns the number of valid entries.
func (t *TLB) Valid() int { return t.index.Len() }
