package bitutil

import (
	"math/rand"
	"testing"
)

// checkTable requires t to hold exactly the contents of ref.
func checkTable(tb testing.TB, step int, tab *Table[uint64], ref map[uint64]uint64) {
	tb.Helper()
	if tab.Len() != len(ref) {
		tb.Fatalf("step %d: Len = %d, map holds %d", step, tab.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := tab.Get(k); !ok || got != v {
			tb.Fatalf("step %d: Get(%#x) = %d,%v want %d,true", step, k, got, ok, v)
		}
	}
}

// collidingKeys returns n distinct keys whose home slot, in a table of
// 2^bits slots, is home or one of the next few slots, so their probe
// chains overlap and wrap past the end of the slot array when home is
// near it.
func collidingKeys(bits uint, home uint64, spread uint64, n int) []uint64 {
	mask := uint64(1)<<bits - 1
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		h := (k * 0x9E3779B97F4A7C15) >> (64 - bits)
		if (h-home)&mask < spread {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableDeleteChains drives the table and a Go map through random
// puts, gets and deletes over keys that collide into long probe chains
// wrapping past the end of the slot array, so every backward shift is
// exercised: holes in the middle of a chain, at its end, and across the
// wrap. Eight keys fit the minimum 16 slots without growing, so the
// chains stay as built.
func TestTableDeleteChains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, home := range []uint64{0, 5, 13, 15} {
		keys := collidingKeys(4, home, 3, 8)
		var tab Table[uint64]
		ref := map[uint64]uint64{}
		for step := 0; step < 20000; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				tab.Put(k, v)
				ref[k] = v
			case 1:
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("home %d step %d: Get(%#x) = %d,%v want %d,%v", home, step, k, got, ok, want, wok)
				}
			case 2:
				tab.Delete(k)
				delete(ref, k)
			}
			checkTable(t, step, &tab, ref)
		}
	}
}

// TestTableVsMap is the same differential over a wide random key space
// with growth well past the initial size, then Reset.
func TestTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint64]
	tab.Init(64)
	ref := map[uint64]uint64{}
	var keys []uint64
	for step := 0; step < 100000; step++ {
		switch rng.Intn(3) {
		case 0:
			k := uint64(rng.Intn(1<<13)) << 12 // page-aligned, collision-rich
			v := rng.Uint64()
			tab.Put(k, v)
			if _, ok := ref[k]; !ok {
				keys = append(keys, k)
			}
			ref[k] = v
		case 1:
			k := uint64(rng.Intn(1<<13)) << 12
			got, ok := tab.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("step %d: Get(%#x) = %d,%v want %d,%v", step, k, got, ok, want, wok)
			}
		case 2:
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			k := keys[i]
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			tab.Delete(k)
			delete(ref, k)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map holds %d", step, tab.Len(), len(ref))
		}
	}
	checkTable(t, -1, &tab, ref)
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Reset left Len = %d", tab.Len())
	}
	for k := range ref {
		if _, ok := tab.Get(k); ok {
			t.Fatalf("Reset left key %#x", k)
		}
	}
}

// TestTableZeroValue: an empty zero-value table answers Get and Delete
// without allocating, and grows on its first Put.
func TestTableZeroValue(t *testing.T) {
	var tab Table[int32]
	if _, ok := tab.Get(3); ok {
		t.Fatal("zero table reported a key")
	}
	tab.Delete(3)
	tab.Put(3, 9)
	if v, ok := tab.Get(3); !ok || v != 9 || tab.Len() != 1 {
		t.Fatalf("after Put: Get = %d,%v Len %d", v, ok, tab.Len())
	}
}
