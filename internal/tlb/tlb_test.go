package tlb

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLookupInsert(t *testing.T) {
	tl := New(4)
	if _, ok := tl.Lookup(7); ok {
		t.Fatal("cold TLB hit")
	}
	tl.Insert(7, 42)
	v, ok := tl.Lookup(7)
	if !ok || v != 42 {
		t.Fatalf("Lookup(7) = %d,%v", v, ok)
	}
	tl.Insert(7, 43) // update in place
	v, _ = tl.Lookup(7)
	if v != 43 {
		t.Errorf("updated value = %d", v)
	}
	if tl.Valid() != 1 {
		t.Errorf("Valid = %d", tl.Valid())
	}
}

func TestNRUReplacement(t *testing.T) {
	tl := New(2)
	tl.Insert(1, 10)
	tl.Insert(2, 20)
	// Reference only key 1: insertion sets ref on both, so force the NRU
	// sweep: all referenced -> clear all -> victim is slot 0 (key 1).
	tl.Insert(3, 30)
	if _, ok := tl.Lookup(1); ok {
		t.Error("NRU sweep should have evicted slot 0 (key 1)")
	}
	if _, ok := tl.Lookup(2); !ok {
		t.Error("key 2 unexpectedly evicted")
	}
	// Now key 2 and 3: lookup(2) above set its ref; lookup(1) missed.
	// Slot 0 holds key 3 with ref clear after sweep? No: insert(3) set it.
	// Insert 4: entries are {3: ref=true, 2: ref=true} -> sweep -> evict 3.
	tl.Insert(4, 40)
	if _, ok := tl.Lookup(3); ok {
		t.Error("key 3 should be the NRU victim")
	}
}

func TestNRUPrefersUnreferenced(t *testing.T) {
	tl := New(3)
	tl.Insert(1, 1)
	tl.Insert(2, 2)
	tl.Insert(3, 3)
	tl.Insert(4, 4) // all ref'd: sweep clears, evicts slot 0 (key 1)
	// Now slots: 4(ref), 2(clear), 3(clear).
	tl.Lookup(2) // ref 2
	tl.Insert(5, 5)
	// Victim must be key 3 (first clear ref), not 2 or 4.
	if _, ok := tl.Lookup(3); ok {
		t.Error("key 3 not evicted")
	}
	for _, k := range []uint64{4, 2, 5} {
		if _, ok := tl.Lookup(k); !ok {
			t.Errorf("key %d missing", k)
		}
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(4)
	tl.Insert(1, 10)
	tl.Insert(2, 20)
	tl.Invalidate(1)
	if _, ok := tl.Lookup(1); ok {
		t.Error("invalidated entry found")
	}
	if _, ok := tl.Lookup(2); !ok {
		t.Error("unrelated entry lost")
	}
	tl.InvalidateAll()
	if tl.Valid() != 0 {
		t.Error("entries remain after InvalidateAll")
	}
	if _, ok := tl.Lookup(2); ok {
		t.Error("entry survives InvalidateAll")
	}
}

func TestHitMissCounters(t *testing.T) {
	tl := New(2)
	tl.Lookup(1)
	tl.Insert(1, 1)
	tl.Lookup(1)
	tl.Lookup(2)
	if tl.Hits() != 1 || tl.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// Property: the TLB never holds more than capacity entries, and a lookup
// immediately after insert always hits with the inserted value.
func TestQuickInsertLookup(t *testing.T) {
	tl := New(16)
	f := func(keys []uint64) bool {
		for _, k := range keys {
			tl.Insert(k, k*2+1)
			v, ok := tl.Lookup(k)
			if !ok || v != k*2+1 {
				return false
			}
			if tl.Valid() > tl.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: index map and entry array stay consistent under a random
// workload of inserts and invalidates.
func TestQuickConsistency(t *testing.T) {
	tl := New(8)
	f := func(ops []uint16) bool {
		for _, op := range ops {
			k := uint64(op % 32)
			switch op % 3 {
			case 0:
				tl.Insert(k, k)
			case 1:
				tl.Invalidate(k)
			case 2:
				if v, ok := tl.Lookup(k); ok && v != k {
					return false
				}
			}
		}
		return tl.Valid() <= tl.Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// twoPassTLB is the replacement rule spelled out the long way, as a
// reference for TestInsertMatchesTwoPass: a linear array searched key by
// key, whose insert first scans for an invalid entry and only then, in a
// second pass, for the first unreferenced one, clearing every referenced
// bit and taking entry 0 when all are set.
type twoPassTLB struct{ entries []entry }

func (r *twoPassTLB) lookup(key uint64) (uint64, bool) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.key == key {
			e.ref = true
			return e.value, true
		}
	}
	return 0, false
}

func (r *twoPassTLB) insert(key, value uint64) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.key == key {
			e.value, e.ref = value, true
			return
		}
	}
	victim := -1
	for i := range r.entries {
		if !r.entries[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i := range r.entries {
			if !r.entries[i].ref {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		for i := range r.entries {
			r.entries[i].ref = false
		}
		victim = 0
	}
	r.entries[victim] = entry{key: key, value: value, valid: true, ref: true}
}

func (r *twoPassTLB) invalidate(key uint64) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.key == key {
			*e = entry{}
		}
	}
}

// TestInsertMatchesTwoPass drives the TLB and the two-pass reference
// through the same random stream of lookups (which set referenced bits),
// inserts, invalidations and rare full flushes, over keys from a range
// about twice the capacity, and requires the same lookup answers and the
// same entries, slot by slot, after every operation.
func TestInsertMatchesTwoPass(t *testing.T) {
	for _, capacity := range []int{1, 4, 128} {
		tl := New(capacity)
		ref := &twoPassTLB{entries: make([]entry, capacity)}
		rng := rand.New(rand.NewPCG(uint64(capacity), 1))
		keys := uint64(2*capacity + 1)
		for step := 0; step < 200000; step++ {
			key := rng.Uint64N(keys)
			switch op := rng.IntN(100); {
			case op < 50:
				v1, ok1 := tl.Lookup(key)
				v2, ok2 := ref.lookup(key)
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("capacity %d step %d: Lookup(%d) = %d,%v, reference %d,%v", capacity, step, key, v1, ok1, v2, ok2)
				}
			case op < 90:
				v := rng.Uint64()
				tl.Insert(key, v)
				ref.insert(key, v)
			case op < 99:
				tl.Invalidate(key)
				ref.invalidate(key)
			default:
				tl.InvalidateAll()
				clear(ref.entries)
			}
			for i := range ref.entries {
				if tl.entries[i] != ref.entries[i] {
					t.Fatalf("capacity %d step %d: entry %d is %+v, reference %+v", capacity, step, i, tl.entries[i], ref.entries[i])
				}
			}
		}
	}
}
