// Package impulse is a library-quality reproduction of the Impulse
// memory-system architecture (Carter et al., "Impulse: Building a Smarter
// Memory Controller", HPCA 1999).
//
// Impulse adds two features to a traditional memory controller:
// application-specific physical address remapping through an otherwise
// unused ("shadow") part of the physical address space, and prefetching
// at the memory controller. This package exposes an execution-driven
// simulator of the paper's machine — single-issue CPU, 32 KB VIPT L1,
// 256 KB PIPT L2, Runway-style bus, banked DRAM, and the Impulse
// controller with its shadow descriptors, AddrCalc, controller page
// table, and prefetch buffers — together with the remapping system-call
// suite, the paper's workloads, and harnesses that regenerate its
// evaluation tables.
//
// Quick start:
//
//	sys, _ := impulse.NewSystem(impulse.Options{
//		Controller: impulse.Impulse,
//		Prefetch:   impulse.PrefetchMC,
//	})
//	x := sys.MustAlloc(8*4096, 0)     // a simulated array
//	sys.StoreF64(x, 3.14)             // runs through TLB/L1/L2/bus/MC/DRAM
//	v := sys.LoadF64(x)
//
// Remapping (the paper's §2.3 operations): System.MapScatterGather,
// System.NewStridedAlias/Retarget, System.Recolor, System.MapSuperpage.
//
// Experiments: Table1, Table2, Figure1 (and the sweeps in
// internal/harness via cmd/sweep) print the paper's tables for this
// simulator; EXPERIMENTS.md records how they compare to the published
// numbers.
package impulse

import (
	"context"
	"io"

	"impulse/internal/addr"
	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/script"
	"impulse/internal/workloads"
)

// Re-exported core types: the system and its configuration.
type (
	// System is a simulated machine plus the Impulse OS interface.
	System = core.System
	// Options selects controller personality and prefetch policy.
	Options = core.Options
	// Row is one measured configuration (the paper's table rows).
	Row = core.Row
	// StridedAlias is a retargetable dense alias of a strided structure.
	StridedAlias = core.StridedAlias
	// VAddr is a simulated virtual address.
	VAddr = addr.VAddr
)

// Controller kinds.
const (
	Conventional = core.Conventional
	Impulse      = core.Impulse
)

// Prefetch policies (the four columns of the paper's tables).
const (
	PrefetchNone = core.PrefetchNone
	PrefetchMC   = core.PrefetchMC
	PrefetchL1   = core.PrefetchL1
	PrefetchBoth = core.PrefetchBoth
)

// Flush modes for StridedAlias retargeting.
const (
	Purge = core.Purge
	Flush = core.Flush
)

// NewSystem builds a simulated system.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// Speedup is the paper's speedup convention: base time / r time.
func Speedup(base, r Row) float64 { return core.Speedup(base, r) }

// Workload parameter and result types.
type (
	// CGParams sizes the NAS conjugate gradient benchmark.
	CGParams = workloads.CGParams
	// MMPParams sizes the tiled matrix-matrix product.
	MMPParams = workloads.MMPParams
	// SparseMatrix is the CSR encoding of Figure 4.
	SparseMatrix = workloads.SparseMatrix
	// Grid is a rendered experiment table.
	Grid = harness.Grid
)

// CG modes (Table 1 sections).
const (
	CGConventional  = workloads.CGConventional
	CGScatterGather = workloads.CGScatterGather
	CGRecolor       = workloads.CGRecolor
)

// MMP modes (Table 2 sections).
const (
	MMPNoCopyTiled = workloads.MMPNoCopyTiled
	MMPCopyTiled   = workloads.MMPCopyTiled
	MMPTileRemap   = workloads.MMPTileRemap
)

// CGPaperGeometry is the default Table 1 geometry (see workloads docs).
func CGPaperGeometry() CGParams { return workloads.CGPaperGeometry() }

// CGClassS is the NPB Class S geometry.
func CGClassS() CGParams { return workloads.CGClassS() }

// MMPDefault is the default Table 2 geometry.
func MMPDefault() MMPParams { return workloads.MMPDefault() }

// MakeA generates the NAS CG input matrix.
func MakeA(n, nonzer int, rcond, shift float64) *SparseMatrix {
	return workloads.MakeA(n, nonzer, rcond, shift)
}

// RunCG executes the CG benchmark on a system.
func RunCG(s *System, par CGParams, mode workloads.CGMode, m *SparseMatrix) (workloads.CGResult, error) {
	return workloads.RunCG(s, par, mode, m)
}

// RunMMP executes the matrix-product benchmark on a system.
func RunMMP(s *System, par MMPParams, mode workloads.MMPMode) (workloads.MMPResult, error) {
	return workloads.RunMMP(s, par, mode)
}

// SetWorkers sets the number of worker goroutines experiment rows fan
// across (the cmd binaries' -j flag). Output is byte-identical for any
// worker count; see internal/harness's pool for the determinism rules.
func SetWorkers(n int) { harness.SetWorkers(n) }

// Workers returns the configured experiment pool width.
func Workers() int { return harness.Workers() }

// SetTraceRecordDir does nothing. Grid cells no longer record their
// reference streams to disk; every cell executes or reuses an identical
// cell's rows. It remains only because the perfbench module calls it, and
// goes with perfbench's next change.
func SetTraceRecordDir(string) {}

// Table1 regenerates the paper's Table 1 at the given geometry.
func Table1(par CGParams, progress harness.Progress) (*Grid, error) {
	return harness.Table1(context.Background(), par, progress)
}

// Table1Ctx is Table1 with a context: a cancelled context stops the run
// between grid cells and returns ctx.Err().
func Table1Ctx(ctx context.Context, par CGParams, progress harness.Progress) (*Grid, error) {
	return harness.Table1(ctx, par, progress)
}

// Table2 regenerates the paper's Table 2 at the given geometry.
func Table2(par MMPParams, progress harness.Progress) (*Grid, error) {
	return harness.Table2(context.Background(), par, progress)
}

// Table2Ctx is Table2 with a context (see Table1Ctx).
func Table2Ctx(ctx context.Context, par MMPParams, progress harness.Progress) (*Grid, error) {
	return harness.Table2(ctx, par, progress)
}

// Figure1 quantifies the paper's diagonal-remapping example.
func Figure1(dim, sweeps int, w io.Writer) error {
	return harness.Figure1(context.Background(), dim, sweeps, w)
}

// RunDiagonal runs the Figure 1 microkernel on a system.
func RunDiagonal(s *System, dim, sweeps int, useImpulse bool) (workloads.DiagResult, error) {
	return workloads.RunDiagonal(s, dim, sweeps, useImpulse)
}

// RunIPC runs the §6 message-gather scenario on a system.
func RunIPC(s *System, bufCount, wordsPerBuf, messages int, useImpulse bool) (workloads.IPCResult, error) {
	return workloads.RunIPC(s, bufCount, wordsPerBuf, messages, useImpulse)
}

// Script is a parsed memory-access program (see internal/script for the
// language: typed loads/stores over named regions, loops, the Impulse
// remapping operations, and impulse/else blocks so one program expresses
// both the conventional and remapped variants of a kernel).
type Script = script.Program

// ScriptResult is the outcome of running a Script.
type ScriptResult = script.Result

// ParseScript compiles a memory-access program.
func ParseScript(src string) (*Script, error) { return script.Parse(src) }

// RunScript executes a parsed program on a system.
func RunScript(s *System, p *Script) (ScriptResult, error) { return script.Run(s, p) }
