package sim

import (
	"fmt"
	"testing"

	"impulse/internal/addr"
	"impulse/internal/mc"
)

// The write-back paths: dirty L1 victims move to L2; dirty L2 victims
// move to memory; flushes scatter dirty shadow lines through the
// controller. These are the paths a tag-only cache model can silently
// get wrong, so each is pinned down by an explicit scenario.

func TestL1DirtyVictimReachesL2(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 64<<10)
	l1 := m.Config().L1.Bytes
	m.Load64(va)                  // bring line into L1 (and L2)
	m.StoreF64(va, 5.0)           // dirty in L1
	m.Load64(va + addr.VAddr(l1)) // evict it (same L1 set, different line)
	if m.St.L1Writebacks != 1 {
		t.Fatalf("L1Writebacks = %d, want 1", m.St.L1Writebacks)
	}
	// The victim's line was L2-resident: the writeback must not touch
	// the bus (it moves L1 -> L2 on-chip).
	if m.St.DRAMWrites != 0 {
		t.Errorf("L1 victim wrote DRAM: %d writes", m.St.DRAMWrites)
	}
}

func TestL1DirtyVictimWithoutL2Copy(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 1<<20)
	l1 := m.Config().L1.Bytes
	m.Load64(va)
	m.StoreF64(va, 5.0) // dirty in L1
	// Evict the line from L2 first (2-way set: load two conflicting
	// lines at L2-set stride), then evict from L1 and watch it go to
	// memory via the bus.
	l2SetStride := addr.VAddr(m.Config().L2.Bytes / m.Config().L2.Ways)
	m.Load64(va + l2SetStride)
	m.Load64(va + 2*l2SetStride)
	busBefore := m.St.BusBytes
	m.Load64(va + addr.VAddr(l1)) // evicts dirty L1 line, L2 no longer has it
	if m.St.L1Writebacks == 0 {
		t.Fatal("no L1 writeback recorded")
	}
	if m.St.BusBytes == busBefore {
		t.Error("orphaned dirty L1 victim produced no bus traffic")
	}
}

func TestL2DirtyWritebackToDRAM(t *testing.T) {
	m := testMachine(t)
	// The L2 is physically indexed: force a set conflict by allocating
	// three pages of the same color and touching the same page offset.
	pages := make([]addr.VAddr, 3)
	for i := range pages {
		va, err := m.K.AllocAndMapColored(addr.PageSize, 0, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		pages[i] = va
	}
	m.StoreF64(pages[0], 9.0) // write-allocate into L2, dirty
	writes := m.St.DRAMWrites
	m.Load64(pages[1]) // way 2 of the same set
	m.Load64(pages[2]) // evicts the dirty line
	if m.St.L2Writebacks == 0 {
		t.Fatal("no L2 writeback recorded")
	}
	if m.St.DRAMWrites == writes {
		t.Error("dirty L2 victim never reached DRAM")
	}
}

func TestFlushAllCachesWritesBack(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.StoreF64(va, 1.0)
	m.Load64(va)
	m.FlushAllCaches()
	if m.L1.ValidLines() != 0 || m.L2.ValidLines() != 0 {
		t.Fatal("caches not empty after FlushAllCaches")
	}
	if m.St.FlushedLines == 0 {
		t.Error("flush accounting empty")
	}
	// Everything misses afterwards.
	mem := m.St.MemLoads
	m.Load64(va)
	if m.St.MemLoads != mem+1 {
		t.Error("post-flush load did not go to memory")
	}
}

func TestBlockTLBTranslation(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 8*addr.PageSize)
	p, _ := m.K.Translate(va)
	// Install a block entry covering the first page only; accesses under
	// it must not touch the page TLB.
	m.InstallBlockTLB(va, p, addr.PageSize)
	misses := m.St.TLBMisses
	m.Load64(va + 8)
	if m.St.TLBMisses != misses {
		t.Error("block-TLB access missed the TLB")
	}
	m.Load64(va + addr.PageSize) // outside the block entry
	if m.St.TLBMisses != misses+1 {
		t.Error("non-block access did not use the page TLB")
	}
	m.ClearBlockTLB()
	m.FlushTLB()
	m.Load64(va + 16)
	if m.St.TLBMisses != misses+2 {
		t.Error("ClearBlockTLB had no effect")
	}
}

func TestInflightPrefetchPartialHit(t *testing.T) {
	m := testMachine(t)
	m.SetL1Prefetch(true)
	va := alloc(t, m, 4096)
	m.Load64(va) // miss; prefetches next line with a future arrival time
	if m.St.L1Prefetches == 0 {
		t.Fatal("no prefetch launched")
	}
	// The next line shares the demand's L2 line, so the prefetch is an L2
	// hit on the idle L2 port, issued when the demand completes.
	arrive := m.Now() + m.Config().L2.HitCycles
	// Immediately touch the prefetched line: it is L1-resident but the
	// data is still in flight; the load must not be a full miss, and it
	// completes when the prefetch arrives.
	l1Hits := m.St.L1LoadHits
	m.Load64(va + addr.VAddr(m.Config().L1.LineBytes))
	if m.St.L1LoadHits != l1Hits+1 {
		t.Error("prefetched line not an L1 hit")
	}
	if m.St.L1PrefetchHits != 1 {
		t.Errorf("L1PrefetchHits = %d", m.St.L1PrefetchHits)
	}
	if m.Now() != arrive {
		t.Errorf("partial hit completed at cycle %d, want the prefetch's arrival %d", m.Now(), arrive)
	}
}

// TestPrefetchEvictedUnused pins the per-slot arrival time of an L1
// prefetch whose line leaves its slot before any demand uses it. The
// prefetch goes to memory, so its arrival lies far ahead. A line demanded
// into the slot afterwards hits without stalling; the same line prefetched
// again stalls its hit until the second arrival, not the first.
func TestPrefetchEvictedUnused(t *testing.T) {
	l1 := addr.VAddr(DefaultConfig().L1.Bytes)
	for _, disable := range []bool{false, true} {
		setup := func(t *testing.T) (*Machine, addr.VAddr, int) {
			m := testMachineWith(t, func(c *Config) {
				c.DisableFastPath = disable
				c.L1Prefetch = true
			})
			buf := alloc(t, m, 2*uint64(l1))
			// b is the first L1 line of an L2 line, so the demand of the
			// line before it misses L2 and its prefetch of b goes to
			// memory too. b and b+l1 share an L1 slot, as do b-32 and
			// b+l1-32; the lines at b+l1-32 and b+l1 are made
			// L2-resident first.
			b := buf + 128
			m.Load64(b + l1 - 32)
			m.Load64(b + l1)
			m.Load64(b - 32) // miss; prefetches b into b+l1's slot
			slot := int(m.L1.SetIndex(uint64(b)))
			if r := m.l1Arrive[slot]; r <= m.Now()+m.Config().L2.HitCycles {
				t.Fatalf("prefetch of b arrives at %d, not after an L2 hit from %d", r, m.Now())
			}
			return m, b, slot
		}
		t.Run(fmt.Sprintf("demand-refill/fastpath-off=%v", disable), func(t *testing.T) {
			m, b, slot := setup(t)
			first := m.l1Arrive[slot]
			m.Load64(b + l1) // L2 hit: evicts the unused prefetch of b
			if m.Now() >= first {
				t.Fatalf("refill completed at %d, after the stale arrival %d", m.Now(), first)
			}
			start := m.Now()
			m.Load64(b + l1 + 8)
			if m.Now() != start+m.Config().L1.HitCycles {
				t.Errorf("hit on the refilled slot took %d cycles, want %d (no stall until %d)",
					m.Now()-start, m.Config().L1.HitCycles, first)
			}
		})
		t.Run(fmt.Sprintf("prefetch-again/fastpath-off=%v", disable), func(t *testing.T) {
			m, b, slot := setup(t)
			first := m.l1Arrive[slot]
			m.Load64(b + l1)      // evicts the unused prefetch of b
			m.Load64(b + l1 - 32) // evicts b-32 from its slot
			if m.Now() < first {  // let the first prefetch land
				m.Tick(first - m.Now())
			}
			prefetches := m.St.L1Prefetches
			m.Load64(b - 32) // L2 hit; prefetches b again, an L2 hit too
			if m.St.L1Prefetches != prefetches+1 {
				t.Fatal("b was not prefetched again")
			}
			second := m.Now() + m.Config().L2.HitCycles
			if got := m.l1Arrive[slot]; got != second {
				t.Fatalf("second arrival = %d, want %d", got, second)
			}
			m.Load64(b)
			if m.Now() != second {
				t.Errorf("hit on the re-prefetched line completed at %d, want the second arrival %d (first was %d)",
					m.Now(), second, first)
			}
		})
	}
}

func TestStoreToShadowScattersOnFlush(t *testing.T) {
	// Covered at the core level for aliases; here pin the sim mechanics:
	// a dirty line whose address is shadow must go through the
	// controller's scatter path on flush.
	m := testMachine(t)
	// Set up a trivial direct-mapped shadow page by hand.
	sh, err := m.K.ShadowAlloc(addr.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]uint64, 1)
	if frames[0], err = m.K.AllocFrame(); err != nil {
		t.Fatal(err)
	}
	va, _ := m.K.AllocVirtual(addr.PageSize, 0)
	if err := m.K.MapShadowPage(va.PageNum(), sh); err != nil {
		t.Fatal(err)
	}
	// Identity descriptor over the page.
	if err := installDirectDescriptor(m, sh, frames[0]); err != nil {
		t.Fatal(err)
	}
	m.StoreF64(va, 7.5) // dirty shadow line (allocated in L2)
	writes := m.St.DRAMWrites
	m.FlushVRange(va, 64)
	if m.St.DRAMWrites == writes {
		t.Error("shadow flush produced no DRAM writes")
	}
	// And the value survives in the backing frame.
	if got := m.Mem.LoadFloat64(addr.PAddr(frames[0] << addr.PageShift)); got != 7.5 {
		t.Errorf("backing frame holds %v", got)
	}
}

// installDirectDescriptor wires a one-page direct mapping at the
// controller for tests.
func installDirectDescriptor(m *Machine, sh addr.PAddr, frame uint64) error {
	d := directDescriptor(sh)
	slot, err := m.MC.FreeSlot()
	if err != nil {
		return err
	}
	if err := m.MC.SetDescriptor(slot, d); err != nil {
		return err
	}
	m.MC.MapPV(d.PVBase.PageNum(), frame)
	return nil
}

// directDescriptor builds a one-page identity descriptor.
func directDescriptor(sh addr.PAddr) mc.Descriptor {
	return mc.Descriptor{Kind: mc.Direct, ShadowBase: sh, Bytes: addr.PageSize, PVBase: 0x9_0000_0000}
}
