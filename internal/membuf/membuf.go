// Package membuf implements the simulated physical memory contents of the
// machine: the actual bytes stored in installed DRAM. It is purely
// functional storage — timing lives in package dram — but it is what makes
// the simulator execution-driven: workloads really read and write their
// data through the memory hierarchy, so every experiment doubles as a
// correctness check of the remapping machinery.
//
// Frames are allocated lazily: a simulated machine with 256 MB of DRAM only
// costs host memory for the pages a workload touches.
package membuf

import (
	"encoding/binary"
	"math"
	"sync"

	"impulse/internal/addr"
)

// Memory is byte-addressable simulated DRAM. All multi-byte accesses are
// little-endian; one that crosses a page boundary is split bytewise.
type Memory struct {
	frames    []*[addr.PageSize]byte
	allocated uint64 // number of frames actually backed
}

// Pools for the frame-pointer table and the page frames themselves. A
// sweep family builds hundreds of short-lived machines with identical
// geometry; recycling the big allocations across cells (see Release) is
// most of the per-cell setup allocation budget. Pages are zeroed on
// reuse, so a recycled Memory is indistinguishable from a fresh one.
var (
	tablePool sync.Pool // *[]*[addr.PageSize]byte
	pagePool  sync.Pool // *[addr.PageSize]byte
)

// New creates a memory with the given number of page frames.
func New(frames uint64) *Memory {
	if t, ok := tablePool.Get().(*[]*[addr.PageSize]byte); ok && uint64(cap(*t)) >= frames {
		return &Memory{frames: (*t)[:frames]} // entries nil-cleared by Release
	}
	return &Memory{frames: make([]*[addr.PageSize]byte, frames)}
}

// Release returns the memory's host allocations to the package pools and
// leaves it empty. The caller must not use the Memory afterwards. Safe to
// call from concurrent goroutines (each releasing its own Memory).
func (m *Memory) Release() {
	for i, f := range m.frames {
		if f != nil {
			pagePool.Put(f)
			m.frames[i] = nil
		}
	}
	t := m.frames
	tablePool.Put(&t)
	m.frames = nil
	m.allocated = 0
}

// Frames returns the total number of addressable frames.
func (m *Memory) Frames() uint64 { return uint64(len(m.frames)) }

// AllocatedFrames returns how many frames are currently backed by host
// memory (touched at least once).
func (m *Memory) AllocatedFrames() uint64 { return m.allocated }

// frame returns the host page backing p, allocating it on first touch.
// The hit path is kept small enough to inline into every access; an
// address beyond installed DRAM fails its index check.
func (m *Memory) frame(p addr.PAddr) *[addr.PageSize]byte {
	n := uint64(p) >> addr.PageShift
	if m.frames[n] == nil {
		m.touch(n)
	}
	return m.frames[n]
}

// touch backs frame n on its first access.
func (m *Memory) touch(n uint64) {
	f, ok := pagePool.Get().(*[addr.PageSize]byte)
	if ok {
		*f = [addr.PageSize]byte{} // zero-on-first-touch semantics
	} else {
		f = new([addr.PageSize]byte)
	}
	m.frames[n] = f
	m.allocated++
}

// Page returns the host page that holds the bytes of p's page, or nil if
// that page has never been touched or lies beyond installed DRAM. It
// allocates nothing. The page stays put until Release, so a caller may
// keep it and move data through it directly.
func (m *Memory) Page(p addr.PAddr) *[addr.PageSize]byte {
	if n := p.PageNum(); n < uint64(len(m.frames)) {
		return m.frames[n]
	}
	return nil
}

// Load8 reads one byte at p.
func (m *Memory) Load8(p addr.PAddr) uint8 {
	return m.frame(p)[p.PageOff()]
}

// Store8 writes one byte at p.
func (m *Memory) Store8(p addr.PAddr, v uint8) {
	m.frame(p)[p.PageOff()] = v
}

// Load32 reads a little-endian 32-bit value at p (must not cross a page).
func (m *Memory) Load32(p addr.PAddr) uint32 {
	off := p.PageOff()
	if off+4 > addr.PageSize {
		return uint32(m.loadCross(p, 4))
	}
	f := m.frame(p)
	return binary.LittleEndian.Uint32(f[off : off+4])
}

// Store32 writes a little-endian 32-bit value at p.
func (m *Memory) Store32(p addr.PAddr, v uint32) {
	off := p.PageOff()
	if off+4 > addr.PageSize {
		m.storeCross(p, uint64(v), 4)
		return
	}
	f := m.frame(p)
	binary.LittleEndian.PutUint32(f[off:off+4], v)
}

// Load64 reads a little-endian 64-bit value at p.
func (m *Memory) Load64(p addr.PAddr) uint64 {
	off := p.PageOff()
	if off+8 > addr.PageSize {
		return m.loadCross(p, 8)
	}
	f := m.frame(p)
	return binary.LittleEndian.Uint64(f[off : off+8])
}

// Store64 writes a little-endian 64-bit value at p.
func (m *Memory) Store64(p addr.PAddr, v uint64) {
	off := p.PageOff()
	if off+8 > addr.PageSize {
		m.storeCross(p, v, 8)
		return
	}
	f := m.frame(p)
	binary.LittleEndian.PutUint64(f[off:off+8], v)
}

// LoadFloat64 reads an IEEE-754 double at p.
func (m *Memory) LoadFloat64(p addr.PAddr) float64 {
	return math.Float64frombits(m.Load64(p))
}

// StoreFloat64 writes an IEEE-754 double at p.
func (m *Memory) StoreFloat64(p addr.PAddr, v float64) {
	m.Store64(p, math.Float64bits(v))
}

func (m *Memory) loadCross(p addr.PAddr, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.Load8(p+addr.PAddr(i))) << (8 * i)
	}
	return v
}

func (m *Memory) storeCross(p addr.PAddr, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.Store8(p+addr.PAddr(i), uint8(v>>(8*i)))
	}
}
