package kernel

import (
	"testing"
	"testing/quick"

	"impulse/internal/addr"
)

func mustKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func smallKernel(t *testing.T, frames uint64) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Layout.DRAMBytes = frames * addr.PageSize
	cfg.Layout.ShadowBase = 1 << 30
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAllocFrameUnique(t *testing.T) {
	k := smallKernel(t, 64)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		f, err := k.AllocFrame()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if _, err := k.AllocFrame(); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestFreeAndReuse(t *testing.T) {
	k := smallKernel(t, 8)
	f, _ := k.AllocFrame()
	if err := k.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := k.FreeFrame(f); err == nil {
		t.Fatal("double free accepted")
	}
	if k.AllocatedFrames() != 0 {
		t.Fatal("accounting wrong after free")
	}
	for i := 0; i < 8; i++ {
		if _, err := k.AllocFrame(); err != nil {
			t.Fatalf("re-alloc %d: %v", i, err)
		}
	}
}

func TestColoredAllocation(t *testing.T) {
	k := mustKernel(t)
	for c := uint64(0); c < k.NumColors(); c++ {
		f, err := k.AllocFrameColored(c, c)
		if err != nil {
			t.Fatalf("color %d: %v", c, err)
		}
		if k.FrameColor(f) != c {
			t.Fatalf("requested color %d, got frame %d (color %d)", c, f, k.FrameColor(f))
		}
	}
	if _, err := k.AllocFrameColored(5, 3); err == nil {
		t.Error("inverted color range accepted")
	}
	if _, err := k.AllocFrameColored(0, k.NumColors()); err == nil {
		t.Error("out-of-range color accepted")
	}
}

func TestColorExhaustion(t *testing.T) {
	k := smallKernel(t, 64) // 64 frames, 32 colors -> 2 frames per color
	if _, err := k.AllocFrameColored(3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AllocFrameColored(3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AllocFrameColored(3, 3); err == nil {
		t.Fatal("third frame of color 3 should not exist")
	}
	// The wider range still succeeds using a neighboring color.
	f, err := k.AllocFrameColored(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k.FrameColor(f) != 4 {
		t.Errorf("expected spill to color 4, got %d", k.FrameColor(f))
	}
}

func TestMapTranslate(t *testing.T) {
	k := mustKernel(t)
	f, _ := k.AllocFrame()
	if err := k.MapPage(0x100, f); err != nil {
		t.Fatal(err)
	}
	if err := k.MapPage(0x100, f); err == nil {
		t.Fatal("double map accepted")
	}
	v := addr.VAddr(0x100<<addr.PageShift | 0x123)
	p, ok := k.Translate(v)
	if !ok || p != addr.PAddr(f<<addr.PageShift|0x123) {
		t.Fatalf("Translate = %v,%v", p, ok)
	}
	if _, ok := k.Translate(0); ok {
		t.Fatal("unmapped page translated")
	}
}

func TestAllocAndMap(t *testing.T) {
	k := mustKernel(t)
	va, err := k.AllocAndMap(3*addr.PageSize+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va.PageOff() != 0 {
		t.Error("base not page aligned")
	}
	// 4 pages mapped (3 full + 1 partial).
	for i := uint64(0); i < 4; i++ {
		if _, ok := k.Translate(va + addr.VAddr(i*addr.PageSize)); !ok {
			t.Errorf("page %d unmapped", i)
		}
	}
	frames, err := k.FramesOf(va, 3*addr.PageSize+5)
	if err != nil || len(frames) != 4 {
		t.Fatalf("FramesOf: %v, %d frames", err, len(frames))
	}
}

func TestAllocAndMapColoredRotates(t *testing.T) {
	k := mustKernel(t)
	va, err := k.AllocAndMapColored(8*addr.PageSize, 0, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := k.FramesOf(va, 8*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, f := range frames {
		c := k.FrameColor(f)
		if c < 4 || c > 7 {
			t.Fatalf("frame color %d outside [4,7]", c)
		}
		counts[c]++
	}
	for c := uint64(4); c <= 7; c++ {
		if counts[c] != 2 {
			t.Errorf("color %d used %d times, want 2 (rotation)", c, counts[c])
		}
	}
}

func TestVirtualAlignment(t *testing.T) {
	k := mustKernel(t)
	va, err := k.AllocVirtual(100, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(va)&(1<<16-1) != 0 {
		t.Errorf("va %#x not 64K aligned", uint64(va))
	}
	if _, err := k.AllocVirtual(100, 3000); err == nil {
		t.Error("non-pow2 alignment accepted")
	}
}

func TestShadowAlloc(t *testing.T) {
	k := mustKernel(t)
	s1, err := k.ShadowAlloc(5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Layout().IsShadow(s1) {
		t.Fatal("shadow allocation outside shadow region")
	}
	s2, err := k.ShadowAlloc(addr.PageSize, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(s2)&(1<<20-1) != 0 {
		t.Error("shadow alignment not honored")
	}
	// Regions are disjoint: s1 used 2 pages.
	if uint64(s2) < uint64(s1)+2*addr.PageSize {
		t.Error("shadow regions overlap")
	}
}

func TestShadowExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout.ShadowBytes = 4 * addr.PageSize
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.ShadowAlloc(3*addr.PageSize, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.ShadowAlloc(2*addr.PageSize, 0); err == nil {
		t.Fatal("shadow over-allocation accepted")
	}
}

func TestMapShadowPageAndFramesOfReject(t *testing.T) {
	k := mustKernel(t)
	sh, _ := k.ShadowAlloc(addr.PageSize, 0)
	va, _ := k.AllocVirtual(addr.PageSize, 0)
	if err := k.MapShadowPage(va.PageNum(), sh); err != nil {
		t.Fatal(err)
	}
	p, ok := k.Translate(va)
	if !ok || !k.Layout().IsShadow(p) {
		t.Fatalf("shadow translate = %v,%v", p, ok)
	}
	// FramesOf must refuse shadow-backed ranges.
	if _, err := k.FramesOf(va, addr.PageSize); err == nil {
		t.Error("FramesOf accepted shadow mapping")
	}
	// MapShadowPage must reject non-shadow targets.
	if err := k.MapShadowPage(va.PageNum()+1, addr.PAddr(0x1000)); err == nil {
		t.Error("MapShadowPage accepted DRAM address")
	}
}

func TestRemapPage(t *testing.T) {
	k := mustKernel(t)
	va, _ := k.AllocAndMap(addr.PageSize, 0)
	f2, _ := k.AllocFrame()
	if err := k.RemapPage(va.PageNum(), f2); err != nil {
		t.Fatal(err)
	}
	p, _ := k.Translate(va)
	if p.PageNum() != f2 {
		t.Errorf("remap not applied: %v", p)
	}
	if err := k.RemapPage(0xdead, f2); err == nil {
		t.Error("remap of unmapped page accepted")
	}
	sh, _ := k.ShadowAlloc(addr.PageSize, 0)
	if err := k.RemapToShadow(va.PageNum(), sh); err != nil {
		t.Fatal(err)
	}
	p, _ = k.Translate(va)
	if !k.Layout().IsShadow(p) {
		t.Error("RemapToShadow not applied")
	}
}

// Property: interleaved alloc/free never double-allocates and never hands
// out a frame outside installed DRAM.
func TestQuickAllocatorSound(t *testing.T) {
	k := smallKernel(t, 128)
	live := map[uint64]bool{}
	var liveList []uint64
	f := func(ops []uint8) bool {
		for _, op := range ops {
			if op%2 == 0 || len(liveList) == 0 {
				fr, err := k.AllocFrame()
				if err != nil {
					continue // exhausted is fine
				}
				if live[fr] || fr >= 128 {
					return false
				}
				live[fr] = true
				liveList = append(liveList, fr)
			} else {
				fr := liveList[int(op)%len(liveList)]
				liveList[int(op)%len(liveList)] = liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				if err := k.FreeFrame(fr); err != nil {
					return false
				}
				delete(live, fr)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shadow allocations are disjoint and inside the shadow region.
func TestQuickShadowDisjoint(t *testing.T) {
	k := mustKernel(t)
	type region struct{ base, size uint64 }
	var regions []region
	f := func(sz uint16) bool {
		size := uint64(sz)%65536 + 1
		s, err := k.ShadowAlloc(size, 0)
		if err != nil {
			return true // exhaustion acceptable
		}
		if !k.Layout().IsShadow(s) {
			return false
		}
		rounded := (size + addr.PageSize - 1) &^ uint64(addr.PageSize-1)
		for _, r := range regions {
			if uint64(s) < r.base+r.size && r.base < uint64(s)+rounded {
				return false
			}
		}
		regions = append(regions, region{uint64(s), rounded})
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReserveFrameRange(t *testing.T) {
	k := smallKernel(t, 64)
	if err := k.ReserveFrameRange(10, 20); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for {
		f, err := k.AllocFrame()
		if err != nil {
			break
		}
		if f >= 10 && f < 20 {
			t.Fatalf("reserved frame %d allocated", f)
		}
		seen[f] = true
	}
	if len(seen) != 54 {
		t.Errorf("allocated %d frames, want 54", len(seen))
	}
	if err := k.ReserveFrameRange(100, 50); err == nil {
		t.Error("inverted range accepted")
	}
	if err := k.ReserveFrameRange(0, 1000); err == nil {
		t.Error("out-of-range reserve accepted")
	}
}

func TestAllocFrameColorSpread(t *testing.T) {
	// The pseudo-random allocator must not pile everything on few colors.
	k := mustKernel(t)
	counts := map[uint64]int{}
	for i := 0; i < 320; i++ {
		f, err := k.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		counts[k.FrameColor(f)]++
	}
	used := len(counts)
	if used < int(k.NumColors())/2 {
		t.Errorf("allocation used only %d of %d colors", used, k.NumColors())
	}
	for c, n := range counts {
		if n > 64 { // 320/32 = 10 expected; 64 would be a pile-up
			t.Errorf("color %d received %d of 320 frames", c, n)
		}
	}
}

func TestAllocVirtualDisjoint(t *testing.T) {
	k := mustKernel(t)
	a, _ := k.AllocVirtual(3*addr.PageSize, 0)
	b, _ := k.AllocVirtual(addr.PageSize, 0)
	if uint64(b) < uint64(a)+3*addr.PageSize {
		t.Error("virtual regions overlap")
	}
}

// naiveFreeLists builds per-color free stacks the way New's original
// per-color append loop did: frames visited high-to-low, each appended
// to its color's stack, so allocation pops lowest-first.
func naiveFreeLists(frames, colors uint64) [][]uint64 {
	lists := make([][]uint64, colors)
	for f := int64(frames) - 1; f >= 0; f-- {
		c := uint64(f) % colors
		lists[c] = append(lists[c], uint64(f))
	}
	return lists
}

func checkFreeLists(t *testing.T, k *Kernel) {
	t.Helper()
	want := naiveFreeLists(k.frames, k.numColors)
	if uint64(len(k.freeByColor)) != k.numColors {
		t.Fatalf("%d color lists, want %d", len(k.freeByColor), k.numColors)
	}
	for c := range want {
		if len(k.freeByColor[c]) != len(want[c]) {
			t.Fatalf("color %d: %d free frames, want %d", c, len(k.freeByColor[c]), len(want[c]))
		}
		for i := range want[c] {
			if k.freeByColor[c][i] != want[c][i] {
				t.Fatalf("color %d index %d: frame %d, want %d", c, i, k.freeByColor[c][i], want[c][i])
			}
		}
	}
}

// TestFreeListConstruction pins New's pooled single-backing free-list
// carving to the naive per-color append construction it replaced —
// identical stacks and pop order — for a fresh kernel, a kernel built
// from recycled storage, and a recycled kernel with a different color
// count (the recycled backing is larger than needed).
func TestFreeListConstruction(t *testing.T) {
	k := mustKernel(t)
	checkFreeLists(t, k)

	// Dirty the free lists, then recycle the storage into a new kernel.
	for i := 0; i < 100; i++ {
		f, err := k.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := k.FreeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Release()
	k2 := mustKernel(t)
	checkFreeLists(t, k2)

	k2.Release()
	cfg := DefaultConfig()
	cfg.PageColors = 8
	k3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFreeLists(t, k3)
}

// TestFreeFrameSegmentIsolation drains one color's segment and refills
// it past its original length boundary via FreeFrame; the capacity bound
// on each carved segment must keep those appends from growing into the
// neighbouring color's storage.
func TestFreeFrameSegmentIsolation(t *testing.T) {
	k := mustKernel(t)
	want1 := append([]uint64(nil), k.freeByColor[1]...)
	var got []uint64
	for {
		f, err := k.AllocFrameColored(0, 0)
		if err != nil {
			break
		}
		got = append(got, f)
	}
	for i := len(got) - 1; i >= 0; i-- {
		if err := k.FreeFrame(got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want1 {
		if k.freeByColor[1][i] != want1[i] {
			t.Fatalf("color 1 corrupted at %d: frame %d, want %d", i, k.freeByColor[1][i], want1[i])
		}
	}
	checkFreeLists(t, k)
}
