// Package core is the public face of the Impulse reproduction: a System
// bundles the simulated machine with the operating-system side of Impulse
// (the system-call suite of §2.1) and exposes the remapping operations the
// paper's optimizations are built from:
//
//   - MapScatterGather — §2.3 "Scatter/gather using an indirection vector"
//   - NewStridedAlias/Retarget — §2.3 "Strided physical memory" (tiles)
//   - Recolor — §2.3 "Direct mapping" used for no-copy page recoloring
//   - MapSuperpage — direct mapping used to build superpages ([21])
//
// A System is single-threaded, like the paper's single-issue machine.
// Workloads access memory through the embedded *sim.Machine and perform
// remappings through System methods, which charge the system-call,
// descriptor-download, page-mapping-download, and cache-flush costs that
// the paper's measurements include.
package core

import (
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/sim"
	"impulse/internal/stats"
)

// ControllerKind selects the memory controller personality.
type ControllerKind int

const (
	// Conventional is a standard memory controller: no remapping, no
	// controller prefetching. (The machine still has the same caches,
	// bus, and DRAM.)
	Conventional ControllerKind = iota
	// Impulse enables shadow-address remapping.
	Impulse
)

func (k ControllerKind) String() string {
	if k == Conventional {
		return "conventional"
	}
	return "impulse"
}

// PrefetchPolicy matches the four columns of the paper's Tables 1 and 2.
type PrefetchPolicy int

const (
	// PrefetchNone: the "Standard" column.
	PrefetchNone PrefetchPolicy = iota
	// PrefetchMC: controller prefetching ("Impulse" column).
	PrefetchMC
	// PrefetchL1: hardware next-line prefetching into the L1 cache
	// ("L1 cache" column; the HP PA 7200 mechanism).
	PrefetchL1
	// PrefetchBoth: both mechanisms ("both" column).
	PrefetchBoth
)

func (p PrefetchPolicy) String() string {
	switch p {
	case PrefetchNone:
		return "none"
	case PrefetchMC:
		return "mc"
	case PrefetchL1:
		return "l1"
	case PrefetchBoth:
		return "both"
	default:
		return fmt.Sprintf("PrefetchPolicy(%d)", int(p))
	}
}

// Costs models the software overheads of using Impulse. The exact values
// are not in the paper; they are sized so that, as the paper reports, "the
// system calls for using Impulse, and the associated cache
// flushes/purges, are faster than copying tiles" while remaining visible.
type Costs struct {
	Syscall        uint64 // trap + kernel entry/exit
	DescriptorDL   uint64 // downloading one shadow descriptor
	PerPageMapping uint64 // downloading one PgTbl entry
}

// DefaultCosts returns the calibrated overheads.
func DefaultCosts() Costs {
	return Costs{Syscall: 200, DescriptorDL: 50, PerPageMapping: 4}
}

// Options configures a System.
type Options struct {
	Controller ControllerKind
	Prefetch   PrefetchPolicy
	Costs      Costs
	// Config optionally overrides the machine configuration. Nil means
	// sim.DefaultConfig().
	Config *sim.Config
	// RowObserver, when non-nil, receives every Row this system produces
	// (Result / Section.End) instead of the package-global observer set
	// with SetRowObserver. The parallel experiment pool injects one per
	// task so concurrent systems never touch shared observer state.
	RowObserver func(Row)
}

// System is an Impulse (or conventional) machine plus its OS interface.
type System struct {
	*sim.Machine

	kind   ControllerKind
	pf     PrefetchPolicy
	costs  Costs
	rowObs func(Row)

	// Pseudo-virtual space bump allocator for descriptor targets.
	pvNext uint64
}

// NewSystem builds a system.
func NewSystem(opts Options) (*System, error) {
	cfg := sim.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if opts.Costs == (Costs{}) {
		opts.Costs = DefaultCosts()
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		Machine: m,
		kind:    opts.Controller,
		pf:      opts.Prefetch,
		costs:   opts.Costs,
		rowObs:  opts.RowObserver,
		pvNext:  0x1_0000_0000,
	}
	m.SetMCPrefetch(opts.Prefetch == PrefetchMC || opts.Prefetch == PrefetchBoth)
	m.SetL1Prefetch(opts.Prefetch == PrefetchL1 || opts.Prefetch == PrefetchBoth)
	return s, nil
}

// Kind returns the controller personality.
func (s *System) Kind() ControllerKind { return s.kind }

// Prefetch returns the prefetch policy.
func (s *System) Prefetch() PrefetchPolicy { return s.pf }

// IsImpulse reports whether remapping operations are available.
func (s *System) IsImpulse() bool { return s.kind == Impulse }

// Alloc allocates and maps `bytes` of zeroed memory, page-aligned
// (align 0) or with the requested power-of-two alignment.
func (s *System) Alloc(bytes, align uint64) (addr.VAddr, error) {
	return s.K.AllocAndMap(bytes, align)
}

// MustAlloc is Alloc for setup code where failure is a test/program bug.
func (s *System) MustAlloc(bytes, align uint64) addr.VAddr {
	v, err := s.Alloc(bytes, align)
	if err != nil {
		panic(err)
	}
	return v
}

// chargeSyscall advances time by a kernel crossing.
func (s *System) chargeSyscall(extra uint64) {
	s.St.Syscalls++
	c := s.costs.Syscall + extra
	s.St.SyscallCycles += c
	s.Tick(c)
}

// allocPV reserves a pseudo-virtual region of the given size, page
// aligned, preserving the page offset of `like` so AddrCalc's page
// arithmetic matches the target structure.
func (s *System) allocPV(bytes uint64, like addr.VAddr) addr.PVAddr {
	base := s.pvNext
	s.pvNext += (bytes + 2*addr.PageSize) &^ (addr.PageSize - 1)
	return addr.PVAddr(base | like.PageOff())
}

// downloadMappings maps the pseudo-virtual image of the virtual range
// [target, target+bytes) in the controller's page table, charging
// per-entry download cost. Returns the pv base corresponding to target.
func (s *System) downloadMappings(target addr.VAddr, bytes uint64) (addr.PVAddr, error) {
	frames, err := s.K.FramesOf(target, bytes)
	if err != nil {
		return 0, err
	}
	pv := s.allocPV(bytes, target)
	s.MC.MapPVRange(pv, frames)
	s.Tick(uint64(len(frames)) * s.costs.PerPageMapping)
	s.St.SyscallCycles += uint64(len(frames)) * s.costs.PerPageMapping
	return pv, nil
}

// Snapshot returns a copy of the current statistics.
func (s *System) Snapshot() stats.MemStats { return *s.St }
