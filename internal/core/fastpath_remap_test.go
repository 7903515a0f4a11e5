package core

import (
	"reflect"
	"testing"

	"impulse/internal/addr"
	"impulse/internal/mc"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/stats"
)

// The access fast path commits L1 hits on Direct and Strided shadow lines
// from a cached physical base (internal/sim/fastpath.go). Most cases below
// change what a resident shadow line resolves to without purging it from
// the caches, so a base that outlived the change would load the old
// target's data; the misaligned ones serve lines from a base that is not
// line-aligned. Every case runs with the fast path off and on and must
// load the same values, take the same cycles and leave every MemStats
// counter equal.

// fillDistinct stores a value unique to (tag, word) into every 8-byte
// word of [v, v+bytes).
func fillDistinct(s *System, v addr.VAddr, bytes, tag uint64) {
	for off := uint64(0); off < bytes; off += 8 {
		s.Store64(v+addr.VAddr(off), tag<<32|off)
	}
}

// sweeper returns a function that loads every word of [v, v+bytes) and
// appends the values to *out.
func sweeper(s *System, out *[]uint64, v addr.VAddr, bytes uint64) func() {
	return func() {
		for off := uint64(0); off < bytes; off += 8 {
			*out = append(*out, s.Load64(v+addr.VAddr(off)))
		}
	}
}

// stridedRemapCase builds a strided alias over target x, makes its lines
// resident and fast, switches the slot to target y through change, and
// loads the alias again.
func stridedRemapCase(change func(t *testing.T, s *System, slot int, d mc.Descriptor)) func(*testing.T, *System) []uint64 {
	return func(t *testing.T, s *System) []uint64 {
		const obj, stride, count = 64, 512, 16
		x := s.MustAlloc(stride*count, 0)
		y := s.MustAlloc(stride*count, 0)
		fillDistinct(s, x, stride*count, 1)
		fillDistinct(s, y, stride*count, 2)
		a, err := s.NewStridedAlias(obj, stride, count, 0)
		if err != nil {
			t.Fatal(err)
		}
		pvX, err := s.downloadMappings(x, stride*count)
		if err != nil {
			t.Fatal(err)
		}
		pvY, err := s.downloadMappings(y, stride*count)
		if err != nil {
			t.Fatal(err)
		}
		d := mc.Descriptor{Kind: mc.Strided, ShadowBase: a.shadow, Bytes: a.Bytes,
			PVBase: pvX, ObjBytes: obj, StrideBytes: stride}
		if err := s.MC.SetDescriptor(a.slot, d); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		sweep := sweeper(s, &out, a.VA, a.Bytes)
		sweep() // fill
		sweep() // reference L1 hits populate the fast table
		sweep() // fast hits
		d.PVBase = pvY
		change(t, s, a.slot, d)
		sweep()
		return out
	}
}

// misalignedCase builds a strided alias whose objects do not start on an
// L1 line boundary in physical memory (stride or target offset not a
// multiple of the line), so a contiguous shadow line's data base is not
// line-aligned. It loads the alias until its lines are fast, stores a new
// value into every word through it, loads it again, and reads the target
// back directly.
func misalignedCase(stride uint64, skew addr.VAddr) func(*testing.T, *System) []uint64 {
	return func(t *testing.T, s *System) []uint64 {
		const obj, count = 64, 16
		bytes := stride*count + 64
		x := s.MustAlloc(bytes, 0)
		fillDistinct(s, x, bytes, 1)
		a, err := s.NewStridedAlias(obj, stride, count, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Retarget(a, x+skew, stride*count, Purge); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		sweep := sweeper(s, &out, a.VA, a.Bytes)
		sweep()
		sweep()
		sweep()
		fillDistinct(s, a.VA, a.Bytes, 2)
		sweep()
		sweeper(s, &out, x, bytes)()
		return out
	}
}

func TestFastPathShadowRemapInvalidation(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, *System) []uint64
		fast bool // shadow lines must commit on the fast path (see diffShadowCase)
	}{
		{"strided-retarget-no-purge", stridedRemapCase(func(t *testing.T, s *System, slot int, d mc.Descriptor) {
			if err := s.MC.SetDescriptor(slot, d); err != nil {
				t.Fatal(err)
			}
		}), true},
		{"strided-clear-then-set", stridedRemapCase(func(t *testing.T, s *System, slot int, d mc.Descriptor) {
			s.MC.ClearDescriptor(slot)
			if err := s.MC.SetDescriptor(slot, d); err != nil {
				t.Fatal(err)
			}
		}), true},
		{"strided-misaligned-stride", misalignedCase(520, 0), true},
		{"strided-misaligned-target", misalignedCase(512, 8), true},
		{"direct-superpage-mappv", func(t *testing.T, s *System) []uint64 {
			const bytes = 4 * addr.PageSize
			x := s.MustAlloc(bytes, 0)
			y := s.MustAlloc(addr.PageSize, 0)
			fillDistinct(s, x, bytes, 1)
			fillDistinct(s, y, addr.PageSize, 2)
			pv := addr.PVAddr(s.pvNext) // MapSuperpage's image of x starts here
			if err := s.MapSuperpage(x, bytes); err != nil {
				t.Fatal(err)
			}
			var out []uint64
			sweep := sweeper(s, &out, x, 1024)
			sweep()
			sweep()
			sweep()
			frames, err := s.K.FramesOf(y, addr.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			s.MC.MapPV(pv.PageNum(), frames[0]) // x's first page now shows y
			sweep()
			return out
		}, true},
		{"gather-vector-store", func(t *testing.T, s *System) []uint64 {
			const n = 512
			x := s.MustAlloc(n*8, 0)
			vec := s.MustAlloc(n*4, 0)
			fillDistinct(s, x, n*8, 1)
			for k := uint64(0); k < n; k++ {
				s.Store32(vec+addr.VAddr(4*k), uint32(k)) // consecutive: lines resolve contiguously
			}
			alias, err := s.MapScatterGather(x, n*8, 8, vec, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			var out []uint64
			sweep := sweeper(s, &out, alias, 256)
			sweep()
			sweep()
			sweep()
			s.Store32(vec+4, 100) // alias element 1 now reads x[100]; no controller operation
			sweep()
			return out
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffShadowCase(t, tc.run, tc.fast) })
	}
}

// TestFastPathShadowSpill: an unaligned access that spills from one
// resident shadow line into the next must resolve each part through its
// own line's remapping, as the controller does, not as one run from the
// first line's cached base.
func TestFastPathShadowSpill(t *testing.T) {
	diffShadowCase(t, func(t *testing.T, s *System) []uint64 {
		const obj, stride, count = 32, 512, 16 // one object per L1 line
		x := s.MustAlloc(stride*count, 0)
		fillDistinct(s, x, stride*count, 1)
		a, err := s.NewStridedAlias(obj, stride, count, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Retarget(a, x, stride*count, Purge); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		sweep := sweeper(s, &out, a.VA, a.Bytes)
		sweep()
		sweep()
		sweep()
		for line := uint64(0); line+1 < count; line++ {
			out = append(out, s.Load64(a.VA+addr.VAddr(line*obj+obj-4)))
		}
		return out
	}, true)
}

// diffShadowCase runs one case with the fast path off and on and
// requires identical loaded values, cycles and MemStats. With fast set,
// shadow lines must also have committed on the fast path, so the case
// cannot pass by never reaching it.
func diffShadowCase(t *testing.T, run func(*testing.T, *System) []uint64, fast bool) {
	t.Helper()
	type result struct {
		values []uint64
		cycles uint64
		st     stats.MemStats
		shadow uint64
	}
	exec := func(disable bool) result {
		cfg := sim.DefaultConfig()
		cfg.DisableFastPath = disable
		s, err := NewSystem(Options{Controller: Impulse, Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.ReleaseBuffers()
		hub := obs.New(obs.Config{})
		s.AttachObs(hub)
		values := run(t, s)
		shadow, _ := hub.Reg().Value("sim.fast.shadow_hits")
		return result{values, s.Now(), *s.St, shadow}
	}
	off, on := exec(true), exec(false)
	if !reflect.DeepEqual(on.values, off.values) {
		for i := range off.values {
			if i >= len(on.values) || on.values[i] != off.values[i] {
				t.Fatalf("load %d: fast path on %#x, off %#x", i, on.values[min(i, len(on.values)-1)], off.values[i])
			}
		}
	}
	if on.cycles != off.cycles {
		t.Errorf("cycles: fast path on %d, off %d", on.cycles, off.cycles)
	}
	if !reflect.DeepEqual(on.st, off.st) {
		t.Errorf("MemStats differ:\nfast on  %+v\nfast off %+v", on.st, off.st)
	}
	if fast && on.shadow == 0 {
		t.Error("no shadow line committed on the fast path; the case does not reach it")
	}
}
