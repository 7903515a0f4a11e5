package tracefile

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/workloads"
)

// tinyCG is small enough that the full 24-variant differential matrix
// stays fast, yet still exercises scatter/gather (with a real
// indirection vector), recoloring, flushes, and the syscall path.
var tinyCG = workloads.CGParams{N: 240, Nonzer: 4, Niter: 1, CGIts: 3, Shift: 10, RCond: 0.1}

var tinyMMP = workloads.MMPParams{N: 48, Tile: 16}

// recordedRun executes run on a freshly built system under a v2
// recorder and returns the trace, the measured row, and the registry
// built from every row the run produced.
func recordedRun(t *testing.T, opts core.Options, run func(*core.System) (core.Row, error)) ([]byte, core.Row, *obs.Registry) {
	t.Helper()
	var reg obs.Registry
	opts.RowObserver = core.CollectRows(&reg)
	s, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecordRun(s)
	row, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data, row, &reg
}

// replayRun replays data on a freshly built system and returns the last
// row and the registry of all replayed rows.
func replayRun(t *testing.T, opts core.Options, data []byte) (core.Row, *obs.Registry) {
	t.Helper()
	return replayAs(t, opts, data, nil)
}

// replayAs is replayRun with each recorded label rewritten by mapLabel,
// as the harness replays a stream recorded by another cell.
func replayAs(t *testing.T, opts core.Options, data []byte, mapLabel func(string) string) (core.Row, *obs.Registry) {
	t.Helper()
	var reg obs.Registry
	opts.RowObserver = core.CollectRows(&reg)
	s, err := core.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReplayV2(s, data, ReplayOpts{MapLabel: mapLabel})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("replay produced no rows")
	}
	return rows[len(rows)-1], &reg
}

func regText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// assertIdentical is the replay-identity check: the rendered row, the
// cycle count, every memory-system counter, and the full registry text
// must be byte-for-byte what execution produced.
func assertIdentical(t *testing.T, name string, execRow, repRow core.Row, execReg, repReg *obs.Registry) {
	t.Helper()
	if execRow.String() != repRow.String() {
		t.Errorf("%s: rendered row diverges:\n exec:   %s\n replay: %s", name, execRow, repRow)
	}
	if execRow.Cycles != repRow.Cycles {
		t.Errorf("%s: cycles diverge: exec %d, replay %d", name, execRow.Cycles, repRow.Cycles)
	}
	if !reflect.DeepEqual(execRow.Stats, repRow.Stats) {
		t.Errorf("%s: stats diverge:\n exec:   %+v\n replay: %+v", name, execRow.Stats, repRow.Stats)
	}
	if e, r := regText(t, execReg), regText(t, repReg); e != r {
		t.Errorf("%s: registry text diverges:\n exec:\n%s\n replay:\n%s", name, e, r)
	}
}

// TestReplayIdentityCG pins the tentpole property for every Table 1
// variant: replaying a recorded CG run on a fresh machine with the same
// configuration reproduces the executed run exactly — cycles, every
// counter, and the rendered row — including the Impulse scatter/gather
// and page-recoloring sections, whose indirection vectors and remap
// setup travel inside the trace.
func TestReplayIdentityCG(t *testing.T) {
	m := workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift)
	modes := []workloads.CGMode{workloads.CGConventional, workloads.CGScatterGather, workloads.CGRecolor}
	pfs := []core.PrefetchPolicy{core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth}
	for _, mode := range modes {
		for _, pf := range pfs {
			name := fmt.Sprintf("%v/%v", mode, pf)
			t.Run(name, func(t *testing.T) {
				kind := core.Conventional
				if mode != workloads.CGConventional || pf == core.PrefetchMC || pf == core.PrefetchBoth {
					kind = core.Impulse
				}
				opts := core.Options{Controller: kind, Prefetch: pf}
				data, execRow, execReg := recordedRun(t, opts, func(s *core.System) (core.Row, error) {
					res, err := workloads.RunCG(s, tinyCG, mode, m)
					return res.Row, err
				})
				if err := Validate(data); err != nil {
					t.Fatalf("recorded trace fails validation: %v", err)
				}
				repRow, repReg := replayRun(t, opts, data)
				assertIdentical(t, name, execRow, repRow, execReg, repReg)
			})
		}
	}
}

// TestReplayIdentityMMP does the same for every Table 2 variant,
// covering the tile-remap (Strided descriptor) path and the software
// tile-copy stream.
func TestReplayIdentityMMP(t *testing.T) {
	modes := []workloads.MMPMode{workloads.MMPNoCopyTiled, workloads.MMPCopyTiled, workloads.MMPTileRemap}
	pfs := []core.PrefetchPolicy{core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth}
	for _, mode := range modes {
		for _, pf := range pfs {
			name := fmt.Sprintf("%v/%v", mode, pf)
			t.Run(name, func(t *testing.T) {
				kind := core.Conventional
				if mode == workloads.MMPTileRemap || pf == core.PrefetchMC || pf == core.PrefetchBoth {
					kind = core.Impulse
				}
				opts := core.Options{Controller: kind, Prefetch: pf}
				data, execRow, execReg := recordedRun(t, opts, func(s *core.System) (core.Row, error) {
					res, err := workloads.RunMMP(s, tinyMMP, mode)
					return res.Row, err
				})
				repRow, repReg := replayRun(t, opts, data)
				assertIdentical(t, name, execRow, repRow, execReg, repReg)
			})
		}
	}
}

// TestReplayAcrossTimingConfigs is the cache's actual use: a stream
// recorded under one prefetch policy, replayed under another, matches
// what executing under that other policy would have produced.
func TestReplayAcrossTimingConfigs(t *testing.T) {
	m := workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift)
	run := func(s *core.System) (core.Row, error) {
		res, err := workloads.RunCG(s, tinyCG, workloads.CGScatterGather, m)
		return res.Row, err
	}
	// Record under PrefetchNone.
	data, _, _ := recordedRun(t, core.Options{Controller: core.Impulse, Prefetch: core.PrefetchNone}, run)
	// Execute directly under PrefetchMC.
	_, execRow, execReg := recordedRun(t, core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC}, run)

	// The recorded labels carry the recording policy's suffix; rewrite to
	// the replaying policy's, as the harness does.
	repRow, repReg := replayAs(t, core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC},
		data, relabelTo(core.PrefetchMC))
	assertIdentical(t, "cross-config", execRow, repRow, execReg, repReg)
}

// TestV2RoundTripStructure checks the recorded stream survives a
// decode pass op-for-op (count preserved, section balance maintained).
func TestV2RoundTripStructure(t *testing.T) {
	data, _, _ := recordedRun(t, core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC},
		func(s *core.System) (core.Row, error) {
			res, err := workloads.RunCG(s, tinyCG, workloads.CGScatterGather,
				workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift))
			return res.Row, err
		})
	var ops, sections int
	if err := forEachOp(data, func(o *v2op) error {
		ops++
		if o.code == opSectionEnd {
			sections++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ops == 0 || sections == 0 {
		t.Fatalf("decoded %d ops, %d section ends", ops, sections)
	}
}

// TestV2DecodeErrors exercises the decoder's validation surface on
// damaged inputs: every structural corruption must surface as an error,
// never a panic or silent acceptance.
func TestV2DecodeErrors(t *testing.T) {
	data, _, _ := recordedRun(t, core.Options{Controller: core.Impulse, Prefetch: core.PrefetchNone},
		func(s *core.System) (core.Row, error) {
			res, err := workloads.RunCG(s, tinyCG, workloads.CGScatterGather,
				workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift))
			return res.Row, err
		})
	if err := Validate(data); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"short header", func(d []byte) []byte { return d[:4] }},
		{"v1 magic", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[7] = 1
			return out
		}},
		{"bad magic", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[0] = 'X'
			return out
		}},
		{"truncated mid-op", func(d []byte) []byte { return d[:len(d)-1] }},
		{"unknown opcode", func(d []byte) []byte {
			return append(append([]byte(nil), d...), 0xEE)
		}},
		{"unbalanced section end", func(d []byte) []byte {
			return append(append([]byte(nil), magicV2[:]...), opSectionEnd, 0)
		}},
		{"oversized label", func(d []byte) []byte {
			// opResult claiming a label longer than the remaining bytes.
			return append(append([]byte(nil), magicV2[:]...), opResult, 0xFF, 0xFF, 0x03, 'x')
		}},
		{"descriptor slot out of range", func(d []byte) []byte {
			return append(append([]byte(nil), magicV2[:]...),
				opSetDescriptor, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0)
		}},
		{"descriptor kind out of range", func(d []byte) []byte {
			return append(append([]byte(nil), magicV2[:]...),
				opSetDescriptor, 0, 0x7F, 0, 0, 0, 0, 0, 0, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.mut(data)); err == nil {
				t.Error("corrupt trace accepted")
			}
		})
	}
}

// TestReplayRejectsSemanticDamage: a structurally valid trace whose
// commands drive the machine into an impossible state must return an
// error from ReplayV2, not panic.
func TestReplayRejectsSemanticDamage(t *testing.T) {
	// A load to a virtual page no opMapPT ever installed.
	data := append([]byte(nil), magicV2[:]...)
	data = append(data, opSectionBegin, opLoad64, 0x80, 0x80, 0x80, 0x01) // delta varint
	data = append(data, opSectionEnd, 1, 'x')
	if err := Validate(data); err != nil {
		t.Fatalf("structurally valid trace rejected: %v", err)
	}
	s, err := core.NewSystem(core.Options{Controller: core.Conventional})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayV2(s, data, ReplayOpts{}); err == nil {
		t.Error("replay of semantically damaged trace succeeded")
	}
}

// TestRecorderRejectsProcessSwitch: multi-process runs are not
// replayable and must surface a recording error, not a bad trace.
func TestRecorderRejectsProcessSwitch(t *testing.T) {
	s, err := core.NewSystem(core.Options{Controller: core.Impulse})
	if err != nil {
		t.Fatal(err)
	}
	rec := RecordRun(s)
	pid := s.K.CreateProcess()
	if err := s.K.SwitchProcess(pid); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Bytes(); err == nil {
		t.Error("process switch recorded without error")
	}
}

// benchCG is sized so the timed loop dominates per-cell system
// construction, as in the real sweeps.
var benchCG = workloads.CGParams{N: 2048, Nonzer: 5, Niter: 1, CGIts: 4, Shift: 10, RCond: 0.1}

func BenchmarkCGExecute(b *testing.B) {
	m := workloads.MakeA(benchCG.N, benchCG.Nonzer, benchCG.RCond, benchCG.Shift)
	for i := 0; i < b.N; i++ {
		s, err := core.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workloads.RunCG(s, benchCG, workloads.CGScatterGather, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGRecord(b *testing.B) {
	m := workloads.MakeA(benchCG.N, benchCG.Nonzer, benchCG.RCond, benchCG.Shift)
	for i := 0; i < b.N; i++ {
		s, err := core.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
		if err != nil {
			b.Fatal(err)
		}
		rec := RecordRun(s)
		if _, err := workloads.RunCG(s, benchCG, workloads.CGScatterGather, m); err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGReplay(b *testing.B) {
	m := workloads.MakeA(benchCG.N, benchCG.Nonzer, benchCG.RCond, benchCG.Shift)
	s, err := core.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
	if err != nil {
		b.Fatal(err)
	}
	rec := RecordRun(s)
	if _, err := workloads.RunCG(s, benchCG, workloads.CGScatterGather, m); err != nil {
		b.Fatal(err)
	}
	data, err := rec.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReplayV2(s, data, ReplayOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
