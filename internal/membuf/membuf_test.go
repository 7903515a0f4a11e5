package membuf

import (
	"math"
	"testing"
	"testing/quick"

	"impulse/internal/addr"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(16)
	m.Store8(5, 0xAB)
	if m.Load8(5) != 0xAB {
		t.Error("Load8/Store8")
	}
	m.Store32(100, 0xDEADBEEF)
	if m.Load32(100) != 0xDEADBEEF {
		t.Error("Load32/Store32")
	}
	m.Store64(200, 0x0123456789ABCDEF)
	if m.Load64(200) != 0x0123456789ABCDEF {
		t.Error("Load64/Store64")
	}
	m.StoreFloat64(300, math.Pi)
	if m.LoadFloat64(300) != math.Pi {
		t.Error("LoadFloat64/StoreFloat64")
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(1)
	m.Store32(0, 0x04030201)
	for i := 0; i < 4; i++ {
		if got := m.Load8(addr.PAddr(i)); got != uint8(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestPageCrossingScalar(t *testing.T) {
	m := New(4)
	p := addr.PAddr(addr.PageSize - 3) // 64-bit value straddles frames 0/1
	m.Store64(p, 0x1122334455667788)
	if got := m.Load64(p); got != 0x1122334455667788 {
		t.Errorf("cross-page Load64 = %#x", got)
	}
	p32 := addr.PAddr(2*addr.PageSize - 2)
	m.Store32(p32, 0xCAFEBABE)
	if got := m.Load32(p32); got != 0xCAFEBABE {
		t.Errorf("cross-page Load32 = %#x", got)
	}
}

func TestLazyAllocation(t *testing.T) {
	m := New(1024)
	if m.AllocatedFrames() != 0 {
		t.Fatal("fresh memory should have no backed frames")
	}
	m.Store8(0, 1)
	m.Store8(addr.PageSize*10, 1)
	m.Store8(addr.PageSize*10+5, 1) // same frame
	if m.AllocatedFrames() != 2 {
		t.Errorf("AllocatedFrames = %d, want 2", m.AllocatedFrames())
	}
	if m.Frames() != 1024 {
		t.Errorf("Frames = %d", m.Frames())
	}
}

func TestZeroInitialized(t *testing.T) {
	m := New(4)
	if m.Load64(addr.PageSize+8) != 0 {
		t.Error("untouched memory not zero")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.Load8(addr.PAddr(2 * addr.PageSize))
}

func TestQuickScalarRoundTrip(t *testing.T) {
	m := New(64)
	limit := uint64(64*addr.PageSize - 8)
	f := func(off uint64, v uint64) bool {
		p := addr.PAddr(off % limit)
		m.Store64(p, v)
		return m.Load64(p) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
