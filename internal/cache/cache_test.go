package cache

import (
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// insert installs the absent line containing paddr as the machine does
// after a miss: Fill into the slot Probe reports. It returns the
// eviction and the slot.
func insert(t *testing.T, c *Cache, indexAddr, paddr uint64, dirty, prefetched bool) (Eviction, int) {
	t.Helper()
	slot, hit := c.Probe(indexAddr, paddr)
	if hit {
		t.Fatalf("insert of resident line %#x", paddr)
	}
	return c.Fill(slot, paddr, dirty, prefetched), slot
}

func TestDefaultGeometries(t *testing.T) {
	l1 := L1Default()
	if l1.Sets() != 1024 { // 32KB / 32B / 1 way
		t.Errorf("L1 sets = %d, want 1024", l1.Sets())
	}
	l2 := L2Default()
	if l2.Sets() != 1024 { // 256KB / 128B / 2 ways
		t.Errorf("L2 sets = %d, want 1024", l2.Sets())
	}
	if err := l1.Validate(); err != nil {
		t.Error(err)
	}
	if err := l2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{Name: "x", Bytes: 1000, LineBytes: 32, Ways: 1},
		{Name: "x", Bytes: 1024, LineBytes: 33, Ways: 1},
		{Name: "x", Bytes: 1024, LineBytes: 32, Ways: 3},
		{Name: "x", Bytes: 64, LineBytes: 64, Ways: 2},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustNew(t, L1Default())
	if c.Lookup(0x1000, 0x1000).Hit {
		t.Fatal("cold cache hit")
	}
	insert(t, c, 0x1000, 0x1000, false, false)
	if !c.Lookup(0x1000, 0x1000).Hit {
		t.Fatal("miss after insert")
	}
	// Same line, different offset.
	if !c.Lookup(0x101F, 0x101F).Hit {
		t.Fatal("miss within same line")
	}
	// Next line.
	if c.Lookup(0x1020, 0x1020).Hit {
		t.Fatal("hit on different line")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mustNew(t, L1Default())
	sz := L1Default().Bytes
	insert(t, c, 0x40, 0x40, false, false)
	// Same index, different tag: must evict.
	ev, slot := insert(t, c, 0x40+sz, 0x40+sz, false, false)
	if !ev.Valid || ev.LineAddr != 0x40/32 {
		t.Errorf("eviction = %+v", ev)
	}
	if slot != 0x40/32 {
		t.Errorf("insert reported slot %d, want %d", slot, 0x40/32)
	}
	if c.Lookup(0x40, 0x40).Hit {
		t.Error("conflicting line still present")
	}
	if !c.Lookup(0x40+sz, 0x40+sz).Hit {
		t.Error("new line absent")
	}
}

func TestTwoWayLRU(t *testing.T) {
	cfg := Config{Name: "t", Bytes: 512, LineBytes: 64, Ways: 2, HitCycles: 1}
	c := mustNew(t, cfg)
	// Set count = 512/64/2 = 4. Lines with same index: stride 256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	insert(t, c, a, a, false, false)
	insert(t, c, b, b, false, false)
	c.Lookup(a, a) // a most recently used
	ev, slot := insert(t, c, d, d, false, false)
	if !ev.Valid || ev.LineAddr != b/64 {
		t.Errorf("LRU victim = %+v, want line %d", ev, b/64)
	}
	if slot != 1 { // set 0, b's way
		t.Errorf("insert reported slot %d, want 1", slot)
	}
	if !c.Lookup(a, a).Hit || !c.Lookup(d, d).Hit || c.Lookup(b, b).Hit {
		t.Error("LRU state wrong after eviction")
	}
}

func TestDirtyEvictionAndFlush(t *testing.T) {
	c := mustNew(t, L1Default())
	insert(t, c, 0x80, 0x80, false, false)
	if slot, hit := c.MarkDirty(0x80, 0x80); !hit || slot != 0x80/32 {
		t.Fatalf("MarkDirty of present line = (%d, %v), want (%d, true)", slot, hit, 0x80/32)
	}
	if slot, hit := c.MarkDirty(0xFFFF80, 0xFFFF80); hit || slot != 0xFFFF80/32%1024 {
		t.Fatalf("MarkDirty of absent line = (%d, %v), want its fill slot (%d, false)", slot, hit, 0xFFFF80/32%1024)
	}
	sz := L1Default().Bytes
	ev, _ := insert(t, c, 0x80+sz, 0x80+sz, false, false)
	if !ev.Dirty {
		t.Error("dirty victim not reported dirty")
	}
	insert(t, c, 0x80, 0x80, true, false)
	slot, dirty := c.FlushLine(0x80, 0x80)
	if slot != 0x80/32 || !dirty {
		t.Errorf("FlushLine = (%v, %v), want (%d, true)", slot, dirty, 0x80/32)
	}
	if c.Lookup(0x80, 0x80).Hit {
		t.Error("line present after flush")
	}
	slot, _ = c.FlushLine(0x80, 0x80)
	if slot >= 0 {
		t.Error("flush of absent line reported a slot")
	}
}

func TestPrefetchedBit(t *testing.T) {
	c := mustNew(t, L1Default())
	insert(t, c, 0x200, 0x200, false, true)
	r := c.Lookup(0x200, 0x200)
	if !r.Hit || !r.WasPrefetched {
		t.Errorf("first use of prefetched line: %+v", r)
	}
	r = c.Lookup(0x200, 0x200)
	if !r.Hit || r.WasPrefetched {
		t.Errorf("second use still flagged prefetched: %+v", r)
	}
}

func TestVirtualIndexAliasing(t *testing.T) {
	// VIPT: same physical line inserted under two virtual indexes lives in
	// two sets; lookup under each index finds it, under others not.
	c := mustNew(t, L1Default())
	paddr := uint64(0x5000)
	v1, v2 := uint64(0x10000), uint64(0x24000) // different L1 indexes
	if c.SetIndex(v1) == c.SetIndex(v2) {
		t.Fatal("test addresses alias; pick others")
	}
	insert(t, c, v1, paddr, false, false)
	if !c.Lookup(v1, paddr).Hit {
		t.Error("miss under inserting alias")
	}
	if c.Lookup(v2, paddr).Hit {
		t.Error("hit under other alias (different set)")
	}
}

func TestFlushAll(t *testing.T) {
	c := mustNew(t, L2Default())
	insert(t, c, 0, 0, true, false)
	insert(t, c, 1<<20, 1<<20, false, false)
	var dirtyCount, total int
	c.FlushAll(func(lineAddr uint64, dirty bool) {
		total++
		if dirty {
			dirtyCount++
		}
	})
	if total != 2 || dirtyCount != 1 {
		t.Errorf("FlushAll visited %d lines, %d dirty", total, dirtyCount)
	}
	if c.ValidLines() != 0 {
		t.Error("lines remain after FlushAll")
	}
}

func TestContainsDoesNotTouchState(t *testing.T) {
	cfg := Config{Name: "t", Bytes: 512, LineBytes: 64, Ways: 2, HitCycles: 1}
	c := mustNew(t, cfg)
	a, b, d := uint64(0), uint64(256), uint64(512)
	insert(t, c, a, a, false, false)
	insert(t, c, b, b, false, false)
	if slot, hit := c.Probe(a, a); !hit || slot != 0 {
		t.Fatalf("Probe of present line = (%d, %v), want (0, true)", slot, hit)
	}
	// A miss reports the LRU victim, a, whose Probe above must not have
	// refreshed it.
	slot, hit := c.Probe(d, d)
	if hit || slot != 0 {
		t.Fatalf("Probe of absent line = (%d, %v), want (0, false)", slot, hit)
	}
	ev, islot := insert(t, c, d, d, false, false)
	if ev.LineAddr != a/64 || islot != slot {
		t.Errorf("Probe disturbed LRU: victim %+v in slot %d, Probe said %d", ev, islot, slot)
	}
}

// wantVictim is the fill slot rule spelled out: the first invalid way of
// the set indexAddr selects, else the first least recently used way.
func wantVictim(c *Cache, indexAddr uint64) int {
	base, set := c.set(indexAddr)
	victim := -1
	for i := range set {
		if !set[i].valid {
			return base + i
		}
		if victim < 0 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	return base + victim
}

// TestFillMatchesInsert drives two caches of one geometry through the
// same random stream of lookups, stores, line flushes and fills with
// random dirty and prefetched bits. One fills each missing line into the
// slot its Lookup, Probe or MarkDirty miss reported, and a store's
// write-allocate fills the line dirty in one step. The other fills
// through insert (a fresh Probe, then Fill), and its write-allocate is a
// clean fill then a MarkDirty hit, two LRU clock ticks where the first
// takes one. Both must report the same slots and evictions, every fill
// slot must be wantVictim's, and both must answer every lookup alike.
func TestFillMatchesInsert(t *testing.T) {
	for _, cfg := range []Config{
		L1Default(),
		{Name: "4way", Bytes: 4096, LineBytes: 32, Ways: 4, HitCycles: 1},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			byFill, byInsert := mustNew(t, cfg), mustNew(t, cfg)
			rng := rand.New(rand.NewSource(7))
			span := 4 * cfg.Bytes
			for step := 0; step < 200000; step++ {
				a := uint64(rng.Int63n(int64(span)))
				// Alias half the stream to a second index, as a VIPT
				// cache sees synonyms.
				idx := a
				if rng.Intn(2) == 0 {
					idx = a ^ cfg.Bytes/2
				}
				switch rng.Intn(8) {
				case 0:
					s1, h1 := byFill.MarkDirty(idx, a)
					s2, h2 := byInsert.MarkDirty(idx, a)
					if s1 != s2 || h1 != h2 {
						t.Fatalf("step %d: MarkDirty (%d,%v) vs (%d,%v)", step, s1, h1, s2, h2)
					}
					if h1 || rng.Intn(2) == 0 {
						break // a hit, or a store that does not allocate
					}
					if want := wantVictim(byFill, idx); s1 != want {
						t.Fatalf("step %d: MarkDirty miss slot %d, want victim %d", step, s1, want)
					}
					ev1 := byFill.Fill(s1, a, true, false)
					ev2, slot2 := insert(t, byInsert, idx, a, false, false)
					if s, hit := byInsert.MarkDirty(idx, a); !hit || s != slot2 {
						t.Fatalf("step %d: MarkDirty after fill = (%d,%v), want (%d,true)", step, s, hit, slot2)
					}
					if ev1 != ev2 || s1 != slot2 {
						t.Fatalf("step %d: allocate (%+v, %d) vs (%+v, %d)", step, ev1, s1, ev2, slot2)
					}
				case 1:
					s1, d1 := byFill.FlushLine(idx, a)
					s2, d2 := byInsert.FlushLine(idx, a)
					if s1 != s2 || d1 != d2 {
						t.Fatalf("step %d: FlushLine (%d,%v) vs (%d,%v)", step, s1, d1, s2, d2)
					}
				default:
					r1 := byFill.Lookup(idx, a)
					r2 := byInsert.Lookup(idx, a)
					if r1 != r2 {
						t.Fatalf("step %d: Lookup %+v vs %+v", step, r1, r2)
					}
					if r1.Hit || rng.Intn(4) == 0 {
						break // a hit, or a miss that does not fill
					}
					dirty, pf := rng.Intn(2) == 0, rng.Intn(2) == 0
					slot := r1.Slot
					if rng.Intn(2) == 0 {
						var hit bool
						if slot, hit = byFill.Probe(idx, a); hit || slot != r1.Slot {
							t.Fatalf("step %d: Probe (%d,%v) after Lookup miss slot %d", step, slot, hit, r1.Slot)
						}
					}
					if want := wantVictim(byFill, idx); slot != want {
						t.Fatalf("step %d: fill slot %d, want victim %d", step, slot, want)
					}
					ev1 := byFill.Fill(slot, a, dirty, pf)
					ev2, slot2 := insert(t, byInsert, idx, a, dirty, pf)
					if ev1 != ev2 || slot != slot2 {
						t.Fatalf("step %d: Fill (%+v, %d) vs insert (%+v, %d)", step, ev1, slot, ev2, slot2)
					}
				}
			}
			if byFill.ValidLines() != byInsert.ValidLines() {
				t.Fatalf("valid lines %d vs %d", byFill.ValidLines(), byInsert.ValidLines())
			}
		})
	}
}

// refModel is an independent reference implementation: set-associative LRU
// over (set, lineAddr) with exact tag identity.
type refModel struct {
	cfg   Config
	sets  []map[uint64]uint64 // lineAddr -> lastUse
	dirty []map[uint64]bool
	tick  uint64
}

func newRef(cfg Config) *refModel {
	r := &refModel{cfg: cfg}
	for i := uint64(0); i < cfg.Sets(); i++ {
		r.sets = append(r.sets, map[uint64]uint64{})
		r.dirty = append(r.dirty, map[uint64]bool{})
	}
	return r
}

func (r *refModel) idx(a uint64) uint64 { return (a / r.cfg.LineBytes) % r.cfg.Sets() }
func (r *refModel) la(a uint64) uint64  { return a / r.cfg.LineBytes }

func (r *refModel) lookup(a uint64) bool {
	s := r.idx(a)
	if _, ok := r.sets[s][r.la(a)]; ok {
		r.tick++
		r.sets[s][r.la(a)] = r.tick
		return true
	}
	return false
}

func (r *refModel) insert(a uint64, dirty bool) {
	s := r.idx(a)
	la := r.la(a)
	r.tick++
	if _, ok := r.sets[s][la]; ok {
		r.sets[s][la] = r.tick
		r.dirty[s][la] = r.dirty[s][la] || dirty
		return
	}
	if uint64(len(r.sets[s])) >= r.cfg.Ways {
		var victim uint64
		best := ^uint64(0)
		for l, use := range r.sets[s] {
			if use < best {
				best, victim = use, l
			}
		}
		delete(r.sets[s], victim)
		delete(r.dirty[s], victim)
	}
	r.sets[s][la] = r.tick
	r.dirty[s][la] = dirty
}

// TestReferenceEquivalence drives the cache and the reference model with
// the same random access stream (PIPT, so index == physical) and demands
// identical hit/miss classification throughout.
func TestReferenceEquivalence(t *testing.T) {
	cfg := Config{Name: "t", Bytes: 4096, LineBytes: 64, Ways: 4, HitCycles: 1}
	c := mustNew(t, cfg)
	ref := newRef(cfg)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		a := uint64(rng.Intn(4 * 4096)) // 4x capacity working set
		isStore := rng.Intn(4) == 0
		got := c.Lookup(a, a).Hit
		want := ref.lookup(a)
		if got != want {
			t.Fatalf("step %d addr %#x: cache hit=%v ref hit=%v", i, a, got, want)
		}
		if !got {
			// Fill on miss: loads only (the L1's write-around policy).
			if !isStore {
				insert(t, c, a, a, isStore, false)
				ref.insert(a, isStore)
			}
		} else if isStore {
			c.MarkDirty(a, a)
			s := ref.idx(a)
			ref.dirty[s][ref.la(a)] = true
		}
	}
}

func TestEvictionPAddr(t *testing.T) {
	ev := Eviction{Valid: true, LineAddr: 5}
	if ev.PAddr(32) != 160 {
		t.Errorf("PAddr = %d", ev.PAddr(32))
	}
}
