package sim

import (
	"testing"
	"unsafe"

	"impulse/internal/addr"
	"impulse/internal/mc"
	"impulse/internal/obs"
)

// testMachine builds a machine with a small DRAM to keep tests light.
func testMachine(t *testing.T) *Machine {
	t.Helper()
	return testMachineWith(t, func(*Config) {})
}

// testMachineWith is testMachine with edit applied to the configuration.
func testMachineWith(t *testing.T, edit func(*Config)) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	layout := addr.Layout{DRAMBytes: 32 << 20, ShadowBase: 1 << 30, ShadowBytes: 256 << 20}
	cfg.Kernel.Layout = layout
	cfg.MC.Layout = layout
	cfg.MC.PgTblBase = addr.PAddr(layout.DRAMBytes - cfg.MC.PgTblBytes)
	edit(&cfg)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func alloc(t *testing.T, m *Machine, bytes uint64) addr.VAddr {
	t.Helper()
	va, err := m.K.AllocAndMap(bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return va
}

func checkClassification(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.St.CheckLoadClassification(); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.StoreF64(va, 3.25)
	if got := m.LoadF64(va); got != 3.25 {
		t.Errorf("LoadF64 = %v", got)
	}
	m.Store32(va+8, 0xCAFE)
	if got := m.Load32(va + 8); got != 0xCAFE {
		t.Errorf("Load32 = %#x", got)
	}
	m.Store64(va+16, 0x1122334455667788)
	if got := m.Load64(va + 16); got != 0x1122334455667788 {
		t.Errorf("Load64 = %#x", got)
	}
	checkClassification(t, m)
}

func TestColdLoadIsMemoryAccess(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.Load64(va)
	if m.St.MemLoads != 1 || m.St.L1LoadHits != 0 {
		t.Errorf("cold load classification: %+v", m.St)
	}
	// Paper: memory access ~40 cycles. Allow the TLB walk on top.
	lat := m.St.LoadCycles - m.St.TLBWalkCost
	if lat < 30 || lat > 60 {
		t.Errorf("cold load latency = %d cycles, want ~40", lat)
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.Load64(va)
	before := m.Now()
	m.Load64(va + 8) // same 32-byte L1 line
	if m.St.L1LoadHits != 1 {
		t.Errorf("expected L1 hit: %+v", m.St)
	}
	if m.Now()-before != 1 {
		t.Errorf("L1 hit took %d cycles, want 1", m.Now()-before)
	}
	checkClassification(t, m)
}

func TestSequentialSpatialLocality(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	for i := uint64(0); i < 512; i++ { // 4 KB of doubles
		m.LoadF64(va + addr.VAddr(8*i))
	}
	// 32-byte L1 lines of 8-byte doubles: 1 miss + 3 hits per line.
	if m.St.L1LoadHits != 384 {
		t.Errorf("L1 hits = %d, want 384", m.St.L1LoadHits)
	}
	// L2 lines are 128 bytes: each memory fill serves 4 L1 lines, so 3 of
	// every 4 L1 misses hit L2.
	if m.St.MemLoads != 32 || m.St.L2LoadHits != 96 {
		t.Errorf("L2/mem classification: L2=%d mem=%d", m.St.L2LoadHits, m.St.MemLoads)
	}
	checkClassification(t, m)
}

func TestL2HitPath(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 64<<10)
	conflict := va + addr.VAddr(m.Config().L1.Bytes) // same L1 set, different line
	m.Load64(va)
	m.Load64(conflict) // evicts va's line from the direct-mapped L1
	before := m.Now()
	m.Load64(va)
	if m.St.L2LoadHits != 1 {
		t.Errorf("expected one L2 hit: %+v", m.St)
	}
	lat := m.Now() - before
	if lat < 7 || lat > 12 {
		t.Errorf("L2 hit latency = %d, want ~8", lat)
	}
	checkClassification(t, m)
}

func TestTLBMissCharged(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 2*addr.PageSize)
	m.Load64(va)
	if m.St.TLBMisses != 1 {
		t.Errorf("TLBMisses = %d", m.St.TLBMisses)
	}
	m.Load64(va + 8) // same page: no miss
	if m.St.TLBMisses != 1 {
		t.Errorf("TLBMisses after same-page access = %d", m.St.TLBMisses)
	}
	m.Load64(va + addr.PageSize)
	if m.St.TLBMisses != 2 {
		t.Errorf("TLBMisses after new page = %d", m.St.TLBMisses)
	}
	if m.St.TLBWalkCost != 2*m.Config().TLBMissPenalty {
		t.Errorf("TLBWalkCost = %d", m.St.TLBWalkCost)
	}
}

func TestStoreWriteAroundAndAllocate(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.StoreF64(va, 1.0) // L1 miss, L2 miss: write-allocate at L2
	if m.St.MemStores != 1 {
		t.Errorf("MemStores = %d", m.St.MemStores)
	}
	// The line now lives in L2 (not L1: write-around).
	m.LoadF64(va)
	if m.St.L2LoadHits != 1 || m.St.L1LoadHits != 0 {
		t.Errorf("after store-allocate, load classification: %+v", m.St)
	}
	// Store to the now-L1-resident line hits L1.
	m.StoreF64(va+8, 2.0)
	if m.St.L1StoreHits != 1 {
		t.Errorf("L1StoreHits = %d", m.St.L1StoreHits)
	}
	checkClassification(t, m)
}

func TestStoreDoesNotStallCPU(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.Load64(va) // warm TLB
	before := m.Now()
	m.StoreF64(va+2048, 1.0) // L1/L2 miss in a warm page
	if m.Now()-before != 1 {
		t.Errorf("store stalled CPU for %d cycles", m.Now()-before)
	}
}

func TestL1PrefetchImprovesStream(t *testing.T) {
	run := func(pf bool) (uint64, uint64) {
		m := testMachine(t)
		m.SetL1Prefetch(pf)
		va := alloc(t, m, 64<<10)
		for i := uint64(0); i < 8192; i++ {
			m.LoadF64(va + addr.VAddr(8*i))
		}
		return m.St.L1LoadHits, m.Now()
	}
	hitsOff, cyclesOff := run(false)
	hitsOn, cyclesOn := run(true)
	if hitsOn <= hitsOff {
		t.Errorf("L1 prefetch did not raise L1 hits: %d vs %d", hitsOn, hitsOff)
	}
	if cyclesOn >= cyclesOff {
		t.Errorf("L1 prefetch did not speed up stream: %d vs %d cycles", cyclesOn, cyclesOff)
	}
}

func TestMCPrefetchImprovesStream(t *testing.T) {
	run := func(pf bool) uint64 {
		m := testMachine(t)
		m.SetMCPrefetch(pf)
		va := alloc(t, m, 64<<10)
		for i := uint64(0); i < 8192; i++ {
			m.LoadF64(va + addr.VAddr(8*i))
		}
		return m.Now()
	}
	off := run(false)
	on := run(true)
	if on >= off {
		t.Errorf("controller prefetch did not speed up stream: %d vs %d cycles", on, off)
	}
}

func TestFlushVRange(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.Load64(va)         // bring line in
	m.StoreF64(va, 42.0) // dirty it in L1
	m.FlushVRange(va, 64)
	if m.St.FlushedLines == 0 {
		t.Fatal("no lines flushed")
	}
	memBefore := m.St.MemLoads
	if got := m.LoadF64(va); got != 42.0 {
		t.Errorf("value after flush = %v", got)
	}
	if m.St.MemLoads != memBefore+1 {
		t.Errorf("load after flush did not go to memory: %+v", m.St)
	}
	checkClassification(t, m)
}

func TestPurgeVsFlushTiming(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 4096)
	m.Load64(va)
	m.PurgeVRange(va, 32)
	if m.St.FlushedLines == 0 {
		t.Error("purge flushed nothing")
	}
	m.Load64(va)
	if m.St.MemLoads != 2 {
		t.Errorf("purged line still cached: %+v", m.St)
	}
}

func TestUnmappedAccessPanics(t *testing.T) {
	m := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	m.Load64(0xDEAD000)
}

// TestShadowAccessEndToEnd drives a strided shadow mapping through the
// whole stack: descriptor at the controller, shadow page mapping in the
// OS page table, data flowing back gathered and cached densely.
func TestShadowAccessEndToEnd(t *testing.T) {
	m := testMachine(t)
	// A matrix of 16 rows x 64 columns of doubles; we remap its first
	// column (stride 512 bytes) to a dense shadow alias.
	rows, cols := uint64(16), uint64(64)
	va := alloc(t, m, rows*cols*8)
	for r := uint64(0); r < rows; r++ {
		m.StoreF64(va+addr.VAddr(r*cols*8), float64(r)*1.5)
	}
	m.FlushVRange(va, rows*cols*8) // consistency before remapping

	sh, err := m.K.ShadowAlloc(rows*8, m.Config().L2.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := m.K.FramesOf(va, rows*cols*8)
	if err != nil {
		t.Fatal(err)
	}
	pvBase := addr.PVAddr(0x4000_0000)
	d := mc.Descriptor{
		Kind: mc.Strided, ShadowBase: addr.PAddr(uint64(sh) &^ (addr.PageSize - 1)),
		Bytes: addr.PageSize, PVBase: pvBase + addr.PVAddr(uint64(va)%addr.PageSize),
		ObjBytes: 8, StrideBytes: cols * 8,
	}
	// Keep it simple: sh is page aligned because L2 lines < page.
	if err := m.MC.SetDescriptor(0, d); err != nil {
		t.Fatal(err)
	}
	m.MC.MapPVRange(pvBase, frames)

	// Map a fresh virtual alias onto the shadow page.
	aliasVA, err := m.K.AllocVirtual(addr.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.K.MapShadowPage(aliasVA.PageNum(), d.ShadowBase); err != nil {
		t.Fatal(err)
	}

	st0 := *m.St
	for r := uint64(0); r < rows; r++ {
		got := m.LoadF64(aliasVA + addr.VAddr(8*r))
		if got != float64(r)*1.5 {
			t.Fatalf("gathered element %d = %v, want %v", r, got, float64(r)*1.5)
		}
	}
	// Dense alias: 16 doubles = 4 L1 lines = 1 L2 line. One memory access
	// (the gather), 3 L2 hits, 12 L1 hits.
	dl := m.St.Loads - st0.Loads
	dm := m.St.MemLoads - st0.MemLoads
	dl1 := m.St.L1LoadHits - st0.L1LoadHits
	if dl != 16 || dm != 1 || dl1 != 12 {
		t.Errorf("shadow access pattern: loads=%d mem=%d l1=%d, want 16/1/12", dl, dm, dl1)
	}
	if m.St.ShadowReads == 0 || m.St.ShadowDRAMReads == 0 {
		t.Errorf("controller gather not exercised: %+v", m.St)
	}
	checkClassification(t, m)
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MC.LineBytes = 64 // mismatch with L2
	if _, err := New(cfg); err == nil {
		t.Error("mismatched controller/L2 line size accepted")
	}
	cfg = DefaultConfig()
	cfg.L1.LineBytes = 256
	if _, err := New(cfg); err == nil {
		t.Error("L1 line > L2 line accepted")
	}
	cfg = DefaultConfig()
	cfg.Kernel.Layout.ShadowBase = 0 // breaks layout equality + validity
	if _, err := New(cfg); err == nil {
		t.Error("inconsistent layouts accepted")
	}
}

func TestIssueWidthScalesTicks(t *testing.T) {
	cfg := DefaultConfig()
	layout := addr.Layout{DRAMBytes: 32 << 20, ShadowBase: 1 << 30, ShadowBytes: 256 << 20}
	cfg.Kernel.Layout = layout
	cfg.MC.Layout = layout
	cfg.MC.PgTblBase = addr.PAddr(layout.DRAMBytes - cfg.MC.PgTblBytes)
	cfg.IssueWidth = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.Now()
	m.Tick(8)
	if m.Now()-t0 != 2 {
		t.Errorf("width-4 Tick(8) took %d cycles, want 2", m.Now()-t0)
	}
	if m.St.Instructions != 8 {
		t.Errorf("Instructions = %d, want 8", m.St.Instructions)
	}
	m.Tick(5) // ceil(5/4) = 2
	if m.Now()-t0 != 4 {
		t.Errorf("width-4 Tick(5) rounding wrong: total %d", m.Now()-t0)
	}
	cfg.IssueWidth = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero issue width accepted")
	}
}

func TestStoreBacklogThrottles(t *testing.T) {
	m := testMachine(t)
	va := alloc(t, m, 1<<20)
	// A burst of store misses (write-allocate memory fills) must not let
	// the bus horizon run away from the CPU clock.
	for i := uint64(0); i < 2048; i++ {
		m.Store64(va+addr.VAddr(i*512), i) // every store a fresh L2 line
	}
	lim := m.Config().StoreBacklogCycles
	if bu := m.Bus.BusyUntil(); bu > m.Now()+lim+400 {
		t.Errorf("bus horizon %d cycles ahead of CPU (limit %d)", bu-m.Now(), lim)
	}
	// With throttling disabled the horizon runs away.
	cfg := m.Config()
	layout := cfg.Kernel.Layout
	_ = layout
	cfg.StoreBacklogCycles = 0
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	va2 := alloc(t, m2, 1<<20)
	for i := uint64(0); i < 2048; i++ {
		m2.Store64(va2+addr.VAddr(i*512), i)
	}
	if bu := m2.Bus.BusyUntil(); bu < m2.Now()+10*lim {
		t.Errorf("unthrottled horizon only %d ahead; throttle test not meaningful", bu-m2.Now())
	}
}

// TestFastEntrySize pins the fast-table entry at 40 bytes. The table has
// exactly one entry per L1 slot (1,024 entries, 40 KB, for the paper's
// L1), so a hit reads this one record and no other: the virtual line,
// the bus line (the L1 tag and the trace address), the data base, the
// host page behind it and the generation stamp.
func TestFastEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(fastEntry{}); got != 40 {
		t.Errorf("fastEntry is %d bytes, want 40", got)
	}
	m := testMachine(t)
	if got, want := len(m.fastVec), int(m.cfg.L1.Sets()*m.cfg.L1.Ways); got != want {
		t.Errorf("fast table has %d entries, want one per L1 slot (%d)", got, want)
	}
}

// TestFastCounters: with a hub attached, sim.fast.hits counts every L1
// hit committed on the fast path, loads and stores, and sim.fast.misses
// every probe that fell back to the reference path; a machine without a
// hub skips the counting, which is then free on the fast path.
func TestFastCounters(t *testing.T) {
	run := func(h *obs.Hub) *Machine {
		m := testMachine(t)
		if h != nil {
			m.AttachObs(h)
		}
		va := alloc(t, m, 4096)
		m.Load64(va) // fill; the line enters the fast table
		for i := 0; i < 4; i++ {
			m.Load64(va + 8)
		}
		m.Store64(va+16, 1)
		m.Store64(va+64, 2) // misses L1: a second fallback
		return m
	}
	h := obs.New(obs.Config{})
	m := run(h)
	hits, _ := h.Reg().Value("sim.fast.hits")
	shadow, _ := h.Reg().Value("sim.fast.shadow_hits")
	misses, _ := h.Reg().Value("sim.fast.misses")
	if l1 := m.St.L1LoadHits + m.St.L1StoreHits; hits != 5 || l1 != 5 {
		t.Errorf("sim.fast.hits = %d, L1 hits = %d; want 5 each", hits, l1)
	}
	if shadow != 0 {
		t.Errorf("sim.fast.shadow_hits = %d on ordinary lines", shadow)
	}
	if all := m.St.Loads + m.St.Stores; misses != 2 || hits+misses != all {
		t.Errorf("sim.fast.misses = %d beside %d hits of %d accesses; want 2, summing to the accesses", misses, hits, all)
	}
	if m := run(nil); m.fastHits != 0 || m.fastMisses != 0 || m.St.L1LoadHits != 4 {
		t.Errorf("without a hub: fastHits = %d, fastMisses = %d, L1LoadHits = %d; want 0, 0 and 4",
			m.fastHits, m.fastMisses, m.St.L1LoadHits)
	}
}
