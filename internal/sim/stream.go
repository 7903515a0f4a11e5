package sim

import (
	"math"

	"impulse/internal/addr"
)

// Batched stream accessors for unit-stride loops. Each issues exactly the
// same per-element access sequence the equivalent Go loop would — same
// counters, same cycles, same trace events — so adopting them never
// changes simulation results. Their benefit is on the host side: the
// per-element closure/interface overhead of a workload loop collapses
// into one call, and the accesses run back-to-back through the fast
// table (fastpath.go), which unit-stride streams hit on every element
// after the first per line. Unlike the loop kernels (kernels.go), they
// go through the per-access API and count each access as it happens.

// StoreStreamI32 stores vals[i] at base + 4*i, as Store32 would.
func (m *Machine) StoreStreamI32(base addr.VAddr, vals []int32) {
	for i, v := range vals {
		m.store(base+addr.VAddr(4*i), 4, uint64(uint32(v)))
	}
}

// StoreStreamU32 stores vals[i] at base + 4*i.
func (m *Machine) StoreStreamU32(base addr.VAddr, vals []uint32) {
	for i, v := range vals {
		m.store(base+addr.VAddr(4*i), 4, uint64(v))
	}
}

// StoreStreamF64 stores vals[i] at base + 8*i.
func (m *Machine) StoreStreamF64(base addr.VAddr, vals []float64) {
	for i, v := range vals {
		m.store(base+addr.VAddr(8*i), 8, math.Float64bits(v))
	}
}

// FillStreamF64 stores val at base + 8*i for i in [0, count).
func (m *Machine) FillStreamF64(base addr.VAddr, val float64, count uint64) {
	bits := math.Float64bits(val)
	for i := uint64(0); i < count; i++ {
		m.store(base+addr.VAddr(8*i), 8, bits)
	}
}

// StoreStreamF64Gen stores gen(i) at base + 8*i for i in [0, count) —
// computed fill patterns without materializing a host-side slice.
func (m *Machine) StoreStreamF64Gen(base addr.VAddr, count uint64, gen func(i uint64) float64) {
	for i := uint64(0); i < count; i++ {
		m.store(base+addr.VAddr(8*i), 8, math.Float64bits(gen(i)))
	}
}

// LoadStreamF64 loads base + 8*i for i in [0, count), passing each value
// to fn — checksum and reduction loops without per-element call sites.
func (m *Machine) LoadStreamF64(base addr.VAddr, count uint64, fn func(i uint64, v float64)) {
	for i := uint64(0); i < count; i++ {
		fn(i, math.Float64frombits(m.load(base+addr.VAddr(8*i), 8)))
	}
}
