package core

import (
	"fmt"
	"testing"

	"impulse/internal/addr"
)

// TestL1PrefetchUnderBlockEntries pins runs of the L1 next-line
// prefetcher while block (superpage) TLB entries are installed to the
// clock and every MemStats counter they gave before the prefetcher took
// a same-page line's frame from its demand. With a block entry installed
// it still asks the kernel's page table: the off-grid case installs a
// block entry whose bus base is 8 bytes past another buffer's frame, so
// a demand under it and the kernel disagree about the next line's frame.
func TestL1PrefetchUnderBlockEntries(t *testing.T) {
	const pages = 16
	cases := []struct {
		name  string
		pf    PrefetchPolicy
		block func(t *testing.T, s *System, x addr.VAddr)
		want  string
	}{
		{"superpage/l1", PrefetchL1, func(t *testing.T, s *System, x addr.VAddr) {
			if err := s.MapSuperpage(x, pages/2*addr.PageSize); err != nil {
				t.Fatal(err)
			}
		}, "now=72028 sum=1610432512 {Instructions:26906 Loads:18432 Stores:8192 L1LoadHits:18412 L2LoadHits:8 MemLoads:12 LoadCycles:51826 L1StoreHits:0 L2StoreHits:7680 MemStores:512 StoreCycles:17872 TLBMisses:20 TLBWalkCost:600 BusTransactions:1152 BusBytes:147456 BusBusyCycles:23040 ShadowReads:256 ShadowDRAMReads:256 MCTLBMisses:8 MCPrefetchHits:0 MCPrefetches:0 SDescPrefHits:0 SDescPrefetches:0 L1Prefetches:5100 L1PrefetchHits:5100 DRAMReads:904 DRAMWrites:256 DRAMRowHits:702 DRAMRowMisses:458 Syscalls:1 SyscallCycles:282 FlushedLines:1024 FlushCycles:2048 L1Writebacks:0 L2Writebacks:256 LoadLatency:{Buckets:[13312 0 4728 8 0 372 11 0 0 0 0 1 0 0 0 0] Count:18432 Total:51826 Max:3002}}"},
		{"superpage/both", PrefetchBoth, func(t *testing.T, s *System, x addr.VAddr) {
			if err := s.MapSuperpage(x, pages/2*addr.PageSize); err != nil {
				t.Fatal(err)
			}
		}, "now=64199 sum=1610432512 {Instructions:26906 Loads:18432 Stores:8192 L1LoadHits:18412 L2LoadHits:8 MemLoads:12 LoadCycles:45607 L1StoreHits:0 L2StoreHits:7680 MemStores:512 StoreCycles:16262 TLBMisses:20 TLBWalkCost:600 BusTransactions:1152 BusBytes:147456 BusBusyCycles:23040 ShadowReads:256 ShadowDRAMReads:256 MCTLBMisses:8 MCPrefetchHits:623 MCPrefetches:640 SDescPrefHits:255 SDescPrefetches:255 L1Prefetches:5100 L1PrefetchHits:5100 DRAMReads:921 DRAMWrites:256 DRAMRowHits:715 DRAMRowMisses:462 Syscalls:1 SyscallCycles:282 FlushedLines:1024 FlushCycles:2048 L1Writebacks:0 L2Writebacks:256 LoadLatency:{Buckets:[13312 0 4728 8 379 0 4 0 0 0 0 1 0 0 0 0] Count:18432 Total:45607 Max:3002}}"},
		{"off-grid/l1", PrefetchL1, func(t *testing.T, s *System, x addr.VAddr) {
			other := s.MustAlloc(pages/2*addr.PageSize+addr.PageSize, 0)
			po, _ := s.TranslateNoFault(other)
			s.InstallBlockTLB(x, po+8, pages/2*addr.PageSize)
		}, "now=94614 sum=1207869440 {Instructions:26624 Loads:18432 Stores:8192 L1LoadHits:14332 L2LoadHits:3841 MemLoads:259 LoadCycles:76742 L1StoreHits:0 L2StoreHits:7680 MemStores:512 StoreCycles:17872 TLBMisses:20 TLBWalkCost:600 BusTransactions:864 BusBytes:110592 BusBusyCycles:17280 ShadowReads:0 ShadowDRAMReads:0 MCTLBMisses:0 MCPrefetchHits:0 MCPrefetches:0 SDescPrefHits:0 SDescPrefetches:0 L1Prefetches:5114 L1PrefetchHits:3068 DRAMReads:864 DRAMWrites:0 DRAMRowHits:624 DRAMRowMisses:240 Syscalls:0 SyscallCycles:0 FlushedLines:0 FlushCycles:0 L1Writebacks:0 L2Writebacks:0 LoadLatency:{Buckets:[11266 0 2973 3839 0 351 2 1 0 0 0 0 0 0 0 0] Count:18432 Total:76742 Max:188}}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, Impulse, tc.pf)
			x := s.MustAlloc(pages*addr.PageSize, 0)
			y := s.MustAlloc(4*addr.PageSize, 0)
			for off := uint64(0); off < pages*addr.PageSize; off += 8 {
				s.Store64(x+addr.VAddr(off), off*3+1)
			}
			tc.block(t, s, x)
			// Stream across the block entry's end, then through a
			// buffer outside it, twice.
			var sum uint64
			for sweep := 0; sweep < 2; sweep++ {
				for off := uint64(0); off < pages*addr.PageSize; off += 8 {
					sum += s.Load64(x + addr.VAddr(off))
				}
				for off := uint64(0); off < 4*addr.PageSize; off += 16 {
					sum += s.Load64(y + addr.VAddr(off))
				}
			}
			if got := fmt.Sprintf("now=%d sum=%d %+v", s.Now(), sum, s.Snapshot()); got != tc.want {
				t.Errorf("run moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestL1PrefetchSynonymArrivals maps one shadow page at two virtual
// addresses of different L1 colours through MapForeignShadow, the only
// way a bus line can sit in two L1 slots (a VIPT synonym), and prefetches
// the same line into both slots before either is used. Each copy arrives
// by its own fill, so each demand hit stalls until its own fill's
// arrival. Two shorter runs with the same history observe those arrivals
// as the completion of a hit that stalls for them.
//
// This is the one case where keeping the arrival per L1 slot differs
// from keying it by bus line: there the second prefetch's arrival
// overwrote the first's, the first hit stalled for the second copy and
// the second hit found no entry and did not stall. No experiment maps a
// synonym with the L1 prefetcher on.
func TestL1PrefetchSynonymArrivals(t *testing.T) {
	const line = 32
	// setup returns a client process's two mappings of one shadow page.
	setup := func(t *testing.T) (*System, addr.VAddr, addr.VAddr) {
		s := newSys(t, Impulse, PrefetchL1)
		const n = 512
		x := s.MustAlloc(n*8*4, 0)
		vec := s.MustAlloc(n*4, 0)
		for k := uint64(0); k < n; k++ {
			s.Store32(vec+addr.VAddr(4*k), uint32(k*3))
			s.StoreF64(x+addr.VAddr(8*k*3), float64(k)+0.25)
		}
		alias, err := s.MapScatterGather(x, n*8*4, 8, vec, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := s.ShadowRegionOf(alias)
		if err != nil {
			t.Fatal(err)
		}
		client := s.SpawnProcess()
		if err := s.GrantShadow(sh, client); err != nil {
			t.Fatal(err)
		}
		if err := s.SwitchProcess(client); err != nil {
			t.Fatal(err)
		}
		m1, err := s.MapForeignShadow(sh, addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := s.MapForeignShadow(sh, addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if s.L1.SetIndex(uint64(m1)) == s.L1.SetIndex(uint64(m2)) {
			t.Fatal("the two mappings share an L1 colour")
		}
		return s, m1, m2
	}
	// hit loads v, a prefetched line, and returns its completion cycle
	// after checking the load value and that it was a prefetch hit.
	hit := func(t *testing.T, s *System, v addr.VAddr, want float64) uint64 {
		hits := s.St.L1PrefetchHits
		if got := s.LoadF64(v); got != want {
			t.Fatalf("load at %v = %v, want %v", v, got, want)
		}
		if s.St.L1PrefetchHits != hits+1 {
			t.Fatalf("load at %v was not a hit on a prefetched line", v)
		}
		return s.Now()
	}
	// Line 1 of either mapping is a demand miss that prefetches line 2.
	// Line 2's first element is the gather's element 8.
	const want = 8.25

	s, m1, _ := setup(t)
	s.LoadF64(m1 + line)
	arrive1 := hit(t, s, m1+2*line, want)

	s, m1, m2 := setup(t)
	s.LoadF64(m1 + line)
	s.LoadF64(m2 + line)
	arrive2 := hit(t, s, m2+2*line, want)

	s, m1, m2 = setup(t)
	s.LoadF64(m1 + line)
	s.LoadF64(m2 + line)
	if s.St.L1Prefetches != 2 {
		t.Fatalf("L1Prefetches = %d, want both copies prefetched", s.St.L1Prefetches)
	}
	start := s.Now()
	if got := hit(t, s, m1+2*line, want); got != max(start+1, arrive1) {
		t.Errorf("first copy's hit completed at %d, want %d (its arrival %d; the second copy's is %d)",
			got, max(start+1, arrive1), arrive1, arrive2)
	}
	start = s.Now()
	if got := hit(t, s, m2+2*line, want); got != max(start+1, arrive2) || got == start+1 {
		t.Errorf("second copy's hit completed at %d, want a stall until its arrival %d", got, arrive2)
	}
}
