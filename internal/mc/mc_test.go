package mc

import (
	"testing"
	"testing/quick"

	"impulse/internal/addr"
	"impulse/internal/dram"
	"impulse/internal/membuf"
	"impulse/internal/stats"
)

// testRig wires a controller to a small DRAM and memory.
type testRig struct {
	c   *Controller
	mem *membuf.Memory
	st  *stats.MemStats
	cfg Config
}

func newRig(t *testing.T, prefetch bool) *testRig {
	t.Helper()
	st := &stats.MemStats{}
	layout := addr.Layout{DRAMBytes: 4 << 20, ShadowBase: 1 << 30, ShadowBytes: 64 << 20}
	mem := membuf.New(layout.DRAMFrames())
	d, err := dram.New(dram.DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Layout = layout
	cfg.PgTblBase = addr.PAddr(layout.DRAMBytes - cfg.PgTblBytes)
	cfg.Prefetch = prefetch
	c, err := New(cfg, d, mem, st)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{c: c, mem: mem, st: st, cfg: cfg}
}

// identityMap maps pseudo-virtual pages [pvBase, pvBase+pages) to the
// frames of the same numbers offset by frameBase.
func (r *testRig) identityMap(pvBase addr.PVAddr, frameBase, pages uint64) {
	frames := make([]uint64, pages)
	for i := range frames {
		frames[i] = frameBase + uint64(i)
	}
	r.c.MapPVRange(pvBase, frames)
}

func TestDescriptorValidate(t *testing.T) {
	good := Descriptor{Kind: Strided, ShadowBase: 1 << 30, Bytes: 4096, ObjBytes: 8, StrideBytes: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Descriptor{
		{Kind: Strided, ShadowBase: (1 << 30) + 1, Bytes: 4096, ObjBytes: 8, StrideBytes: 64},
		{Kind: Strided, ShadowBase: 1 << 30, Bytes: 0, ObjBytes: 8, StrideBytes: 64},
		{Kind: Strided, ShadowBase: 1 << 30, Bytes: 4096, ObjBytes: 12, StrideBytes: 64},
		{Kind: Strided, ShadowBase: 1 << 30, Bytes: 4096, ObjBytes: 8, StrideBytes: 0},
		{Kind: Gather, ShadowBase: 1 << 30, Bytes: 4096, ObjBytes: 9, StrideBytes: 8},
		{Kind: RemapKind(99), ShadowBase: 1 << 30, Bytes: 4096},
	}
	for i, d := range cases {
		if d.Validate() == nil {
			t.Errorf("case %d: invalid descriptor accepted: %+v", i, d)
		}
	}
}

func TestSetDescriptorChecks(t *testing.T) {
	r := newRig(t, false)
	d := Descriptor{Kind: Direct, ShadowBase: 1 << 30, Bytes: 8192, PVBase: 0}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	// Overlapping region in another slot.
	d2 := d
	d2.ShadowBase += 4096
	if err := r.c.SetDescriptor(1, d2); err == nil {
		t.Error("overlapping descriptor accepted")
	}
	// Same slot may be replaced.
	if err := r.c.SetDescriptor(0, d2); err != nil {
		t.Errorf("replacing own slot failed: %v", err)
	}
	// Region outside shadow space.
	d3 := Descriptor{Kind: Direct, ShadowBase: 0x1000, Bytes: 4096}
	if err := r.c.SetDescriptor(2, d3); err == nil {
		t.Error("non-shadow descriptor accepted")
	}
	if err := r.c.SetDescriptor(-1, d); err == nil {
		t.Error("negative slot accepted")
	}
	if err := r.c.SetDescriptor(NumDescriptors, d); err == nil {
		t.Error("slot beyond range accepted")
	}
}

func TestFreeSlotExhaustion(t *testing.T) {
	r := newRig(t, false)
	for i := 0; i < NumDescriptors; i++ {
		slot, err := r.c.FreeSlot()
		if err != nil {
			t.Fatal(err)
		}
		d := Descriptor{Kind: Direct, ShadowBase: addr.PAddr(1<<30 + i*8192), Bytes: 4096}
		if err := r.c.SetDescriptor(slot, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.c.FreeSlot(); err == nil {
		t.Error("ninth descriptor allocated")
	}
	r.c.ClearDescriptor(3)
	if slot, err := r.c.FreeSlot(); err != nil || slot != 3 {
		t.Errorf("FreeSlot after clear = %d, %v", slot, err)
	}
}

func TestResolveDirect(t *testing.T) {
	r := newRig(t, false)
	// Shadow page 0 -> frame 7, shadow page 1 -> frame 3 (recoloring).
	d := Descriptor{Kind: Direct, ShadowBase: 1 << 30, Bytes: 2 * addr.PageSize, PVBase: 0x10000000}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	r.c.MapPVRange(d.PVBase, []uint64{7, 3})
	runs, err := r.c.Resolve(d.ShadowBase+0x123, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].P != addr.PAddr(7<<addr.PageShift|0x123) || runs[0].Bytes != 8 {
		t.Errorf("direct resolve = %+v", runs)
	}
	// Second page.
	runs, err = r.c.Resolve(d.ShadowBase+addr.PAddr(addr.PageSize)+4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].P != addr.PAddr(3<<addr.PageShift|4) {
		t.Errorf("direct resolve page 2 = %+v", runs)
	}
	// Page-crossing range splits into two runs.
	runs, err = r.c.Resolve(d.ShadowBase+addr.PAddr(addr.PageSize)-4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Bytes != 4 || runs[1].Bytes != 4 {
		t.Errorf("page-crossing resolve = %+v", runs)
	}
}

func TestResolveStrided(t *testing.T) {
	r := newRig(t, false)
	// Objects of 8 bytes at stride 64: the diagonal of a matrix with
	// 64-byte rows (Figure 1).
	d := Descriptor{
		Kind: Strided, ShadowBase: 1 << 30, Bytes: addr.PageSize,
		PVBase: 0, ObjBytes: 8, StrideBytes: 64,
	}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	r.identityMap(0, 0, 16)
	for k := uint64(0); k < 20; k++ {
		runs, err := r.c.Resolve(d.ShadowBase+addr.PAddr(8*k), 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 || runs[0].P != addr.PAddr(64*k) || runs[0].Bytes != 8 {
			t.Fatalf("strided resolve k=%d: %+v", k, runs)
		}
	}
	// Unaligned intra-object access.
	runs, _ := r.c.Resolve(d.ShadowBase+addr.PAddr(8*3+5), 3)
	if len(runs) != 1 || runs[0].P != addr.PAddr(64*3+5) {
		t.Errorf("intra-object resolve = %+v", runs)
	}
	// Access spanning two objects.
	runs, _ = r.c.Resolve(d.ShadowBase+addr.PAddr(8*3+4), 8)
	if len(runs) != 2 || runs[0].P != addr.PAddr(64*3+4) || runs[1].P != addr.PAddr(64*4) {
		t.Errorf("object-spanning resolve = %+v", runs)
	}
}

func TestResolveGather(t *testing.T) {
	r := newRig(t, false)
	// Target structure x at pv 0 (frames 0..15); indirection vector at pv
	// 0x100000 (frames 16..17). x'[k] = x[vec[k]], 8-byte elements.
	const vecPV = addr.PVAddr(0x100000)
	d := Descriptor{
		Kind: Gather, ShadowBase: 1 << 30, Bytes: addr.PageSize,
		PVBase: 0, ObjBytes: 8, StrideBytes: 8, VecPV: vecPV,
	}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	r.identityMap(0, 0, 16)
	r.identityMap(vecPV, 16, 2)
	// Write the vector: vec[k] = (k*37) % 5000.
	for k := uint64(0); k < 512; k++ {
		r.mem.Store32(addr.PAddr(16<<addr.PageShift)+addr.PAddr(4*k), uint32((k*37)%5000))
	}
	for k := uint64(0); k < 512; k++ {
		runs, err := r.c.Resolve(d.ShadowBase+addr.PAddr(8*k), 8)
		if err != nil {
			t.Fatal(err)
		}
		want := addr.PAddr(8 * ((k * 37) % 5000))
		if len(runs) != 1 || runs[0].P != want {
			t.Fatalf("gather resolve k=%d: %+v, want %v", k, runs, want)
		}
	}
}

// TestLineBase: a shadow range reports its physical base only when a
// Direct or Strided descriptor maps every byte of it contiguously from
// that base.
func TestLineBase(t *testing.T) {
	r := newRig(t, false)
	const sh = addr.PAddr(1 << 30)
	const page = addr.PAddr(addr.PageSize)
	const vecPV = addr.PVAddr(0x100000)
	descs := []Descriptor{
		{Kind: Direct, ShadowBase: sh, Bytes: 3 * addr.PageSize, PVBase: 0x10000000},
		{Kind: Strided, ShadowBase: sh + 3*page, Bytes: addr.PageSize, PVBase: 0, ObjBytes: 64, StrideBytes: 256},
		{Kind: Gather, ShadowBase: sh + 4*page, Bytes: addr.PageSize, PVBase: 0, ObjBytes: 8, StrideBytes: 8, VecPV: vecPV},
		{Kind: Strided, ShadowBase: sh + 5*page, Bytes: addr.PageSize, PVBase: 0, ObjBytes: 8, StrideBytes: 8},
		{Kind: Strided, ShadowBase: sh + 6*page, Bytes: addr.PageSize, PVBase: 0, ObjBytes: 8, StrideBytes: 16},
	}
	for i, d := range descs {
		if err := r.c.SetDescriptor(i, d); err != nil {
			t.Fatal(err)
		}
	}
	r.c.MapPVRange(descs[0].PVBase, []uint64{7, 3, 4})
	r.identityMap(0, 0, 16)
	r.identityMap(vecPV, 16, 1)
	for k := uint64(0); k < 512; k++ {
		r.mem.Store32(addr.PAddr(16<<addr.PageShift)+addr.PAddr(4*k), uint32(k))
	}
	cases := []struct {
		name string
		p    addr.PAddr
		want addr.PAddr // 0 = no contiguous base
	}{
		{"direct within a page", sh + 0x120, 7<<addr.PageShift | 0x120},
		{"direct across non-adjacent frames", sh + page - 16, 0},
		{"direct across adjacent frames", sh + 2*page - 16, 3<<addr.PageShift | (addr.PageSize - 16)},
		{"strided within an object", sh + 3*page + 64 + 32, 256 + 32},
		{"strided across objects", sh + 3*page + 48, 0},
		{"gather with consecutive entries", sh + 4*page, 0},
		{"strided small objects packed", sh + 5*page + 64, 64},
		{"strided small objects with gaps", sh + 6*page + 64, 0},
		{"no descriptor", sh + 7*page, 0},
	}
	for _, tc := range cases {
		got, ok := r.c.LineBase(tc.p, 32)
		if ok != (tc.want != 0) || got != tc.want {
			t.Errorf("%s: LineBase(%v, 32) = %v, %v; want %v", tc.name, tc.p, got, ok, tc.want)
		}
	}
}

// Property: gather resolution equals the indirection-vector semantics for
// random vectors and strides.
func TestQuickGatherOracle(t *testing.T) {
	r := newRig(t, false)
	const vecPV = addr.PVAddr(0x200000)
	d := Descriptor{
		Kind: Gather, ShadowBase: 1 << 30, Bytes: addr.PageSize,
		PVBase: 0, ObjBytes: 8, StrideBytes: 8, VecPV: vecPV,
	}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	r.identityMap(0, 0, 512)     // 2 MB of target
	r.identityMap(vecPV, 512, 1) // one page of vector
	f := func(k uint16, target uint32) bool {
		idx := uint64(k) % (addr.PageSize / 8)
		tgt := target % (512 * addr.PageSize / 8)
		r.mem.Store32(addr.PAddr(512<<addr.PageShift)+addr.PAddr(4*idx), tgt)
		runs, err := r.c.Resolve(d.ShadowBase+addr.PAddr(8*idx), 8)
		if err != nil {
			return false
		}
		return len(runs) == 1 && runs[0].P == addr.PAddr(8*uint64(tgt)) && runs[0].Bytes == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResolveErrors(t *testing.T) {
	r := newRig(t, false)
	if _, err := r.c.Resolve(1<<30, 8); err == nil {
		t.Error("resolve without descriptor succeeded")
	}
	d := Descriptor{Kind: Direct, ShadowBase: 1 << 30, Bytes: addr.PageSize, PVBase: 0}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	if _, err := r.c.Resolve(1<<30, 8); err == nil {
		t.Error("resolve with unmapped pv page succeeded")
	}
	r.identityMap(0, 0, 1)
	if _, err := r.c.Resolve(1<<30+addr.PAddr(addr.PageSize-4), 8); err == nil {
		t.Error("resolve past descriptor end succeeded")
	}
}

func TestReadLineNormalAndPrefetch(t *testing.T) {
	r := newRig(t, true)
	// First read: DRAM; also prefetches line+1.
	t1, err := r.c.ReadLine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= r.cfg.PipelineCycles {
		t.Error("read completed implausibly fast")
	}
	if r.st.MCPrefetches != 1 {
		t.Errorf("MCPrefetches = %d, want 1", r.st.MCPrefetches)
	}
	// Sequential next read hits the SRAM.
	hitsBefore := r.st.MCPrefetchHits
	t2, err := r.c.ReadLine(t1+100, 128)
	if err != nil {
		t.Fatal(err)
	}
	if r.st.MCPrefetchHits != hitsBefore+1 {
		t.Errorf("prefetch hit not recorded: %+v", r.st)
	}
	if t2-(t1+100) >= t1 {
		t.Errorf("prefetched read latency %d not better than cold %d", t2-(t1+100), t1)
	}
}

func TestReadLineNoPrefetchWhenDisabled(t *testing.T) {
	r := newRig(t, false)
	if _, err := r.c.ReadLine(0, 0); err != nil {
		t.Fatal(err)
	}
	if r.st.MCPrefetches != 0 {
		t.Error("prefetch launched while disabled")
	}
}

func TestWriteInvalidatesSRAM(t *testing.T) {
	r := newRig(t, true)
	t1, _ := r.c.ReadLine(0, 0) // prefetches line 1
	if _, err := r.c.WriteLine(t1, 128); err != nil {
		t.Fatal(err)
	}
	hits := r.st.MCPrefetchHits
	if _, err := r.c.ReadLine(t1+50, 128); err != nil {
		t.Fatal(err)
	}
	if r.st.MCPrefetchHits != hits {
		t.Error("stale SRAM entry served after write")
	}
}

func TestReadLineUnaligned(t *testing.T) {
	r := newRig(t, false)
	if _, err := r.c.ReadLine(0, 8); err == nil {
		t.Error("unaligned line read accepted")
	}
}

func gatherRig(t *testing.T, prefetch bool) (*testRig, Descriptor) {
	r := newRig(t, prefetch)
	const vecPV = addr.PVAddr(0x100000)
	d := Descriptor{
		Kind: Gather, ShadowBase: 1 << 30, Bytes: 16 * addr.PageSize,
		PVBase: 0, ObjBytes: 8, StrideBytes: 8, VecPV: vecPV,
	}
	if err := r.c.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	r.identityMap(0, 0, 256)
	r.identityMap(vecPV, 256, 16)
	// Scattered vector: stride 17 through a 64K-element x.
	for k := uint64(0); k < 16*addr.PageSize/8; k++ {
		r.mem.Store32(addr.PAddr(256<<addr.PageShift)+addr.PAddr(4*k), uint32((k*17)%65536))
	}
	return r, d
}

func TestGatherTimingAndPrefetch(t *testing.T) {
	r, d := gatherRig(t, false)
	t1, err := r.c.ReadLine(0, d.ShadowBase)
	if err != nil {
		t.Fatal(err)
	}
	// A gathered line of 16 8-byte elements scattered at stride 17*8
	// touches many distinct DRAM lines.
	if r.st.ShadowDRAMReads < 10 {
		t.Errorf("gather performed only %d DRAM reads", r.st.ShadowDRAMReads)
	}
	if r.st.ShadowReads != 1 {
		t.Errorf("ShadowReads = %d", r.st.ShadowReads)
	}
	// Gather must cost more than a plain line read but far less than
	// 16 serialized row misses (bank parallelism).
	plain, _ := r.c.ReadLine(100000, 0)
	plainLat := plain - 100000
	if t1 <= plainLat {
		t.Errorf("gather latency %d not above plain %d", t1, plainLat)
	}

	// With prefetching, the second sequential shadow line is served from
	// the descriptor buffer.
	r2, d2 := gatherRig(t, true)
	ta, _ := r2.c.ReadLine(0, d2.ShadowBase)
	hits := r2.st.SDescPrefHits
	tb, err := r2.c.ReadLine(ta+500, d2.ShadowBase+128)
	if err != nil {
		t.Fatal(err)
	}
	if r2.st.SDescPrefHits != hits+1 {
		t.Errorf("descriptor prefetch hit not recorded: %+v", r2.st)
	}
	if tb-(ta+500) >= ta {
		t.Errorf("prefetched gather latency %d not better than cold %d", tb-(ta+500), ta)
	}
}

func TestPgTblTLB(t *testing.T) {
	r, d := gatherRig(t, false)
	if _, err := r.c.ReadLine(0, d.ShadowBase); err != nil {
		t.Fatal(err)
	}
	misses := r.st.MCTLBMisses
	if misses == 0 {
		t.Fatal("cold PgTbl produced no misses")
	}
	// Re-reading the same line: translations are cached.
	if _, err := r.c.ReadLine(100000, d.ShadowBase); err != nil {
		t.Fatal(err)
	}
	if r.st.MCTLBMisses != misses {
		t.Errorf("warm gather missed PgTbl again: %d -> %d", misses, r.st.MCTLBMisses)
	}
}

func TestWriteLineShadowScatters(t *testing.T) {
	r, d := gatherRig(t, false)
	writes := r.st.DRAMWrites
	if _, err := r.c.WriteLine(0, d.ShadowBase); err != nil {
		t.Fatal(err)
	}
	if r.st.DRAMWrites-writes < 10 {
		t.Errorf("shadow write-back issued only %d DRAM writes", r.st.DRAMWrites-writes)
	}
}

func TestShadowWriteInvalidatesDescBuffer(t *testing.T) {
	r, d := gatherRig(t, true)
	t1, _ := r.c.ReadLine(0, d.ShadowBase) // prefetches base+128
	if _, err := r.c.WriteLine(t1, d.ShadowBase+128); err != nil {
		t.Fatal(err)
	}
	hits := r.st.SDescPrefHits
	if _, err := r.c.ReadLine(t1+1000, d.ShadowBase+128); err != nil {
		t.Fatal(err)
	}
	if r.st.SDescPrefHits != hits {
		t.Error("stale descriptor buffer served after shadow write")
	}
}
