package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"impulse/internal/addr"
	"impulse/internal/sim"
)

// The loop kernels (sim.Machine.DotF64 and IndexedDotF64) are defined as
// the per-access loops they replace. FuzzKernelIdentity runs a random,
// bounded program twice on fresh, identical machines: once calling the
// kernels, once calling the loops spelled out over the per-access API.
// After every step, and after a final sweep over every page, the two
// machines must agree on the returned sum's bits, the clock and every
// MemStats field.
//
// The machine byte picks the prefetch policy, issue width 1 or 2, the
// paper's direct-mapped L1 or a 2-way VIPT L1, the gather alias's L1
// placement, the paper's 2-way L2 or a 4-way one, and whether a block
// entry is installed. The seed draws a program of up to 16 steps: kernel
// calls (a row product repeated over neighbouring columns, as the tiled
// product makes them) over a plain array larger than the TLB reaches, a
// small one, a strided alias whose objects sit at a misaligned base and
// straddle lines and pages, a gather alias, and the part of the small
// array the block entry covers, at any byte offset and strides from 0 to
// past a page; and, between calls, FlushTLB, range flushes and purges,
// FlushAllCaches, stores, and per-access updates along a stream, which
// leave dirty lines in the L1 for the kernels' fills to evict.
//
// Those choices reach every case kernelLoad's one-step L2 hit checks:
// its preconditions (a 2-way L1, a 4-way L2, a block entry, a memo page
// not yet learnt or shadow, an access past its line), each of its falls
// (an L1 hit, often on a prefetched line still in flight, and an L2
// miss), a dirty victim, and a next line inside the demand's L2 line or
// across an L2 line or a page.
func FuzzKernelIdentity(f *testing.F) {
	for i := range 8 {
		// One seed per machine shape; the program seeds are arbitrary.
		f.Add(byte(i*0x15), uint64(i)*0x9e3779b97f4a7c15, uint8(8))
	}
	f.Fuzz(func(t *testing.T, machine byte, seed uint64, steps uint8) {
		kern, ref := newKernelRig(t, machine), newKernelRig(t, machine)
		defer kern.s.ReleaseBuffers()
		defer ref.s.ReleaseBuffers()
		kp, rp := newProgram(seed), newProgram(seed)
		n := 1 + int(steps%16)
		for step := 0; step <= n; step++ {
			var kv, rv float64
			desc := "final page sweep"
			if step < n {
				kv, desc = kern.step(kp, true)
				rv, _ = ref.step(rp, false)
			} else {
				kern.sweepPages()
				ref.sweepPages()
			}
			// Both sums are computed in the same order; only a NaN's
			// payload is the compiler's to choose (it may commute x*y).
			if math.Float64bits(kv) != math.Float64bits(rv) && !(math.IsNaN(kv) && math.IsNaN(rv)) {
				t.Fatalf("step %d (%s): kernel returned %v (%#x), loop %v (%#x)",
					step, desc, kv, math.Float64bits(kv), rv, math.Float64bits(rv))
			}
			if kern.s.Now() != ref.s.Now() {
				t.Fatalf("step %d (%s): kernel clock %d, loop clock %d", step, desc, kern.s.Now(), ref.s.Now())
			}
			if *kern.s.St != *ref.s.St {
				t.Fatalf("step %d (%s): MemStats differ:\nkernel %+v\nloop   %+v", step, desc, *kern.s.St, *ref.s.St)
			}
		}
	})
}

// program draws a fuzz program's choices from a generator seeded by the
// input, so every input is a fresh program.
type program struct{ r *rand.Rand }

func newProgram(seed uint64) *program {
	return &program{r: rand.New(rand.NewPCG(seed, 0x6b65726e656c))}
}

func (p *program) next() uint64 { return p.r.Uint64() & 0xff }

func (p *program) word() uint64 { return p.r.Uint64() & 0xffff }

// kernelStrides are the strides a program picks from: 0, multiples of
// the 8-byte element (odd ones among them), the line, and past a page.
var kernelStrides = []uint64{0, 8, 24, 32, 40, 256, 2048, 2056, 4096, 4104}

const (
	rigBigBytes   = 1 << 20 // 256 pages: twice what the TLB maps
	rigSmallBytes = 64 << 10
	rigIdxCount   = 16 << 10
	rigIdxRange   = 8 << 10 // column values, below the element count of the first four regions
	// The block entry maps one page's worth of the small array, from
	// mid-page to mid-page and mid-L2-line, onto a page of its own, so the
	// page table and the block disagree about it and about nothing else.
	rigBlockOff   = 3*addr.PageSize + 2080
	rigBlockBytes = addr.PageSize
)

// kernelRig is one machine of the identity pair and the regions its
// program addresses.
type kernelRig struct {
	s       *System
	regions [5]rigRegion // big, small, strided, gather, the small array around the block entry
	idx     addr.VAddr   // uint32[rigIdxCount], values in [0, rigIdxRange)
}

// rigRegion is a range a program addresses.
type rigRegion struct {
	va    addr.VAddr
	bytes uint64
}

// sweepPages loads one word of every page the program can address,
// smallest regions first, through the per-access API. State the program
// left behind but did not read back, such as which translations the TLB
// holds, then shows in the clock and the counters.
func (r *kernelRig) sweepPages() {
	for _, reg := range []rigRegion{{r.idx, rigIdxCount * 4}, r.regions[1], r.regions[2], r.regions[3], r.regions[0]} {
		for off := uint64(0); off < reg.bytes; off += addr.PageSize {
			r.s.Load64(reg.va + addr.VAddr(off))
		}
	}
}

func newKernelRig(t *testing.T, c byte) *kernelRig {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.IssueWidth = 1 + uint64(c>>2&1)
	if c>>3&1 == 1 {
		cfg.L1.Ways = 2
	}
	if c>>5&1 == 1 {
		cfg.L2.Ways = 4
	}
	pf := []PrefetchPolicy{PrefetchNone, PrefetchMC, PrefetchL1, PrefetchBoth}[c&3]
	s, err := NewSystem(Options{Controller: Impulse, Prefetch: pf, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	r := &kernelRig{s: s}
	big := s.MustAlloc(rigBigBytes, 0)
	small := s.MustAlloc(rigSmallBytes, 0)
	r.idx = s.MustAlloc(rigIdxCount*4, 0)
	// Fill the arrays in memory directly: simulating the stores would
	// cost most of an input's time.
	put := func(v addr.VAddr, bits uint64, size int) {
		p, ok := s.TranslateNoFault(v)
		if !ok {
			t.Fatalf("unmapped %v", v)
		}
		if size == 8 {
			s.Mem.Store64(p, bits)
		} else {
			s.Mem.Store32(p, uint32(bits))
		}
	}
	for i := uint64(0); i < rigBigBytes/8; i++ {
		put(big+addr.VAddr(8*i), math.Float64bits(float64(i%1021)-510.25), 8)
	}
	for i := uint64(0); i < rigSmallBytes/8; i++ {
		put(small+addr.VAddr(8*i), math.Float64bits(1/float64(i+3)), 8)
	}
	for j := uint64(0); j < rigIdxCount; j++ {
		put(r.idx+addr.VAddr(4*j), (j*2654435761)>>7%rigIdxRange, 4)
	}
	// 64-byte objects every 520 bytes from an 8-byte-misaligned base:
	// lines whose data base is not line-aligned, some across pages.
	strided, err := s.NewStridedAlias(64, 520, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retarget(strided, big+8, 1024*520, Purge); err != nil {
		t.Fatal(err)
	}
	l1Off := uint64(c>>4&1) * cfg.L1.Bytes / 2
	gather, err := s.MapScatterGather(big, rigBigBytes, 8, r.idx, rigIdxCount, l1Off)
	if err != nil {
		t.Fatal(err)
	}
	r.regions = [5]rigRegion{{big, rigBigBytes}, {small, rigSmallBytes}, {strided.VA, strided.Bytes}, {gather, rigIdxCount * 8},
		{small + 2*addr.PageSize, 8 * addr.PageSize}}
	if c>>6&1 == 1 {
		blk := s.MustAlloc(addr.PageSize, 0)
		for i := uint64(0); i < addr.PageSize/8; i++ {
			put(blk+addr.VAddr(8*i), math.Float64bits(float64(i)+0.5), 8)
		}
		p, _ := s.TranslateNoFault(blk)
		s.InstallBlockTLB(small+rigBlockOff, p, rigBlockBytes)
	}
	s.ResetCachesUntimed()
	return r
}

// stream reads a region, a start offset and a stride, and bounds n so
// that the n accesses of size bytes stay inside the region.
func (r *kernelRig) stream(pr *program, n *uint64, size uint64) (addr.VAddr, uint64) {
	reg := r.regions[pr.next()%uint64(len(r.regions))]
	off := pr.word() % (reg.bytes - size)
	stride := kernelStrides[pr.next()%uint64(len(kernelStrides))]
	if stride > 0 {
		*n = min(*n, (reg.bytes-size-off)/stride+1)
	}
	return reg.va + addr.VAddr(off), stride
}

// step runs one program step, through the kernels or the spelled-out
// loops, and returns the sum a kernel step computed (0 otherwise) and a
// description for failures.
func (r *kernelRig) step(pr *program, kernels bool) (float64, string) {
	s := r.s
	switch op := pr.next() % 9; op {
	case 0, 1, 2: // DotF64, repeated over neighbouring columns as the tiled product calls it
		n := 1 + pr.word()%600
		a, as := r.stream(pr, &n, 8)
		const maxReps = 16
		b, bs := r.stream(pr, &n, 8*(maxReps+1))
		reps := 1 + pr.next()%maxReps
		acc, ticks := float64(pr.next())-128, pr.next()%8
		for range reps {
			if kernels {
				acc = s.DotF64(acc, a, as, b, bs, n, ticks)
			} else {
				for k := uint64(0); k < n; k++ {
					x := s.LoadF64(a + addr.VAddr(k*as))
					y := s.LoadF64(b + addr.VAddr(k*bs))
					acc += x * y
					s.Tick(ticks)
				}
			}
			b += 8
		}
		return acc, "DotF64"
	case 3: // IndexedDotF64 over the index vector, any values, any multiplicand region
		lo := pr.word() % rigIdxCount
		hi := min(lo+pr.next()*4, rigIdxCount)
		vals := r.regions[pr.next()%uint64(len(r.regions))]
		voff := pr.word() % (vals.bytes - 8*(hi-lo+1))
		x := r.regions[pr.next()%4].va // the block region holds fewer than rigIdxRange elements
		idx, va := r.idx, vals.va+addr.VAddr(voff)-addr.VAddr(8*lo)
		acc, ticks := float64(pr.next())-128, pr.next()%8
		if kernels {
			return s.IndexedDotF64(acc, idx, va, x, lo, hi, ticks), "IndexedDotF64"
		}
		for j := lo; j < hi; j++ {
			col := s.Load32(idx + addr.VAddr(4*j))
			v := s.LoadF64(va + addr.VAddr(8*j))
			xv := s.LoadF64(x + addr.VAddr(8*uint64(col)))
			acc += v * xv
			s.Tick(ticks)
		}
		return acc, "IndexedDotF64"
	case 4:
		s.FlushTLB()
		return 0, "FlushTLB"
	case 5, 6: // flush or purge part of a region
		reg := r.regions[pr.next()%uint64(len(r.regions))]
		off := pr.word() % reg.bytes
		bytes := min(pr.word(), reg.bytes-off)
		if op == 5 {
			s.FlushVRange(reg.va+addr.VAddr(off), bytes)
			return 0, "FlushVRange"
		}
		s.PurgeVRange(reg.va+addr.VAddr(off), bytes)
		return 0, "PurgeVRange"
	case 7:
		if pr.next()%2 == 0 {
			s.FlushAllCaches()
			return 0, "FlushAllCaches"
		}
		reg := r.regions[pr.next()%uint64(len(r.regions))]
		off := pr.word() % (reg.bytes - 8)
		s.StoreF64(reg.va+addr.VAddr(off), float64(pr.next())/7)
		return 0, "StoreF64"
	default: // y[k] = y[k]/2 + 1 along a stream, per access on both machines: the loads bring lines in, the stores dirty them
		n := 1 + pr.word()%600
		y, ys := r.stream(pr, &n, 8)
		for k := uint64(0); k < n; k++ {
			va := y + addr.VAddr(k*ys)
			s.StoreF64(va, s.LoadF64(va)/2+1)
		}
		return 0, "update"
	}
}
