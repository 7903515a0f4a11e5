package sim

import (
	"math/rand"
	"testing"

	"impulse/internal/bitutil"
	"impulse/internal/timeline"
)

// TestInflightTableVsMap drives the in-flight prefetch table's type and
// a plain map through the same randomized put/get/del sequence (keys
// line-aligned, like the real caller) and checks they agree at every
// step.
func TestInflightTableVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab bitutil.Table[timeline.Time]
	ref := map[uint64]timeline.Time{}
	keys := make([]uint64, 0, 4096)

	for op := 0; op < 200000; op++ {
		switch rng.Intn(3) {
		case 0: // put (possibly overwriting)
			k := uint64(rng.Intn(1<<14)) << 5 // line-aligned, collision-rich
			v := timeline.Time(rng.Uint64())
			tab.Put(k, v)
			if _, ok := ref[k]; !ok {
				keys = append(keys, k)
			}
			ref[k] = v
		case 1: // get (mix of present and absent keys)
			k := uint64(rng.Intn(1<<14)) << 5
			if rng.Intn(2) == 0 && len(keys) > 0 {
				k = keys[rng.Intn(len(keys))]
			}
			gv, gok := tab.Get(k)
			wv, wok := ref[k]
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: get(%#x) = %v,%v want %v,%v", op, k, gv, gok, wv, wok)
			}
		case 2: // del (mix of present and absent keys)
			k := uint64(rng.Intn(1<<14)) << 5
			if rng.Intn(2) == 0 && len(keys) > 0 {
				i := rng.Intn(len(keys))
				k = keys[i]
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
			tab.Delete(k)
			delete(ref, k)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: size %d != %d", op, tab.Len(), len(ref))
		}
	}

	// Full sweep: everything the map holds must be in the table.
	for k, v := range ref {
		if gv, ok := tab.Get(k); !ok || gv != v {
			t.Fatalf("final: get(%#x) = %v,%v want %v,true", k, gv, ok, v)
		}
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("reset left n=%d", tab.Len())
	}
	for k := range ref {
		if _, ok := tab.Get(k); ok {
			t.Fatalf("reset left key %#x", k)
		}
	}
}
