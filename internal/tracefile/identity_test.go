// Package tracefile held the simulator's trace record and replay formats.
// They are gone: every grid cell executes its workload or reuses an
// identical cell's rows, so re-execution is the only way a run is
// reproduced. The directory keeps only the formats' replay-identity
// tests, under their old names, pinning that re-execution: every Table 1
// and Table 2 variant, run again on a fresh machine with the fast path
// off, reproduces the first run exactly.
package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// tinyCG is small enough that the full 24-variant differential matrix
// stays fast, yet still exercises scatter/gather (with a real
// indirection vector), recoloring, flushes, and the syscall path.
var tinyCG = workloads.CGParams{N: 240, Nonzer: 4, Niter: 1, CGIts: 3, Shift: 10, RCond: 0.1}

var tinyMMP = workloads.MMPParams{N: 48, Tile: 16}

// execution is what one run of a variant shows: its measured row, the
// registry built from every row it produced, the values the workload
// computed (CG's Zeta and residual norm, MMP's checksum), and the count
// and FNV-1a digest of every trace event it emitted.
type execution struct {
	row    core.Row
	reg    string
	values [2]float64
	events int
	digest uint64
}

// execute runs exec on a freshly built system, with the fast path off
// when fastOff is set.
func execute(t *testing.T, opts core.Options, fastOff bool,
	exec func(*core.System) (core.Row, [2]float64, error)) execution {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.DisableFastPath = fastOff
	opts.Config = &cfg
	var reg obs.Registry
	opts.RowObserver = core.CollectRows(&reg)
	s, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.ReleaseBuffers()
	var x execution
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	s.SetTracer(func(e sim.TraceEvent) {
		x.events++
		b := buf[:0]
		for _, v := range []uint64{e.Cycle, uint64(e.Kind), uint64(e.Level),
			uint64(e.VAddr), uint64(e.PAddr), e.Size, e.Latency} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		if e.Shadow {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		h.Write(b)
	})
	if x.row, x.values, err = exec(s); err != nil {
		t.Fatal(err)
	}
	x.digest = h.Sum64()
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	x.reg = text.String()
	return x
}

// assertIdentical is the replay-identity check: the rendered row, the
// cycle count, every memory-system counter, the full registry text, the
// computed values and the trace-event stream must be what the first run
// produced.
func assertIdentical(t *testing.T, first, again execution) {
	t.Helper()
	if first.row.String() != again.row.String() {
		t.Errorf("rendered row diverges:\n first: %s\n again: %s", first.row, again.row)
	}
	if first.row.Cycles != again.row.Cycles {
		t.Errorf("cycles diverge: first %d, again %d", first.row.Cycles, again.row.Cycles)
	}
	if !reflect.DeepEqual(first.row.Stats, again.row.Stats) {
		t.Errorf("stats diverge:\n first: %+v\n again: %+v", first.row.Stats, again.row.Stats)
	}
	if first.reg != again.reg {
		t.Errorf("registry text diverges:\n first:\n%s\n again:\n%s", first.reg, again.reg)
	}
	if first.values != again.values {
		t.Errorf("computed values diverge: first %v, again %v", first.values, again.values)
	}
	if first.events != again.events || first.digest != again.digest {
		t.Errorf("trace events diverge: first %d (digest %#x), again %d (digest %#x)",
			first.events, first.digest, again.events, again.digest)
	}
}

// replayIdentity runs one variant with the fast path on and again, on a
// fresh machine, with it off, and requires the two runs to match.
func replayIdentity(t *testing.T, opts core.Options, exec func(*core.System) (core.Row, [2]float64, error)) {
	t.Helper()
	first := execute(t, opts, false, exec)
	if first.events == 0 {
		t.Fatal("run emitted no trace events")
	}
	assertIdentical(t, first, execute(t, opts, true, exec))
}

var prefetches = []core.PrefetchPolicy{core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth}

// TestReplayIdentityCG pins re-execution identity for every Table 1
// variant — cycles, every counter, the rendered row, Zeta and the
// residual norm, and every trace event — including the Impulse
// scatter/gather and page-recoloring sections, whose indirection vectors
// and remap setup run through the controller.
func TestReplayIdentityCG(t *testing.T) {
	m := workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift)
	modes := []workloads.CGMode{workloads.CGConventional, workloads.CGScatterGather, workloads.CGRecolor}
	for _, mode := range modes {
		for _, pf := range prefetches {
			t.Run(fmt.Sprintf("%v/%v", mode, pf), func(t *testing.T) {
				kind := core.Conventional
				if mode != workloads.CGConventional || pf == core.PrefetchMC || pf == core.PrefetchBoth {
					kind = core.Impulse
				}
				replayIdentity(t, core.Options{Controller: kind, Prefetch: pf},
					func(s *core.System) (core.Row, [2]float64, error) {
						res, err := workloads.RunCG(s, tinyCG, mode, m)
						return res.Row, [2]float64{res.Zeta, res.RNorm}, err
					})
			})
		}
	}
}

// TestReplayIdentityMMP does the same for every Table 2 variant,
// covering the tile-remap (Strided descriptor) path and the software
// tile-copy stream.
func TestReplayIdentityMMP(t *testing.T) {
	modes := []workloads.MMPMode{workloads.MMPNoCopyTiled, workloads.MMPCopyTiled, workloads.MMPTileRemap}
	for _, mode := range modes {
		for _, pf := range prefetches {
			t.Run(fmt.Sprintf("%v/%v", mode, pf), func(t *testing.T) {
				kind := core.Conventional
				if mode == workloads.MMPTileRemap || pf == core.PrefetchMC || pf == core.PrefetchBoth {
					kind = core.Impulse
				}
				replayIdentity(t, core.Options{Controller: kind, Prefetch: pf},
					func(s *core.System) (core.Row, [2]float64, error) {
						res, err := workloads.RunMMP(s, tinyMMP, mode)
						return res.Row, [2]float64{res.Checksum}, err
					})
			})
		}
	}
}
