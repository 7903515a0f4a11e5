package tracefile

import (
	"fmt"
	"strings"
	"testing"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/sim"
	"impulse/internal/workloads"
)

// The TestVectorReplayIdentity* tests first covered a batched engine that
// replayed one recorded stream on every column of a table section at
// once. That engine is gone; the harness replays a persisted stream one
// cell at a time with ReplayV2 (-trace-replay), and the stream may have
// been recorded by any column of its section — whichever cell started
// first. The tests keep their names and pin that property: a stream
// recorded under any column, replayed under another column's
// configuration with its labels rewritten, reproduces executing that
// column exactly.

var sectionPfs = []core.PrefetchPolicy{core.PrefetchNone, core.PrefetchMC, core.PrefetchL1, core.PrefetchBoth}

// relabelTo rewrites a recorded "<section>/<prefetch>" label to pf's
// suffix, as the harness does for a replaying cell.
func relabelTo(pf core.PrefetchPolicy) func(string) string {
	suffix := pf.String()
	return func(l string) string {
		if i := strings.LastIndexByte(l, '/'); i >= 0 {
			return l[:i+1] + suffix
		}
		return l
	}
}

// columnRun is one executed column of a section: its trace, measured row
// and registry.
type columnRun struct {
	data []byte
	row  core.Row
	reg  *obs.Registry
}

// recordColumns executes every column of a section under a recorder.
func recordColumns(t *testing.T, optsFor func(core.PrefetchPolicy) core.Options, run func(*core.System) (core.Row, error)) []columnRun {
	t.Helper()
	cols := make([]columnRun, len(sectionPfs))
	for i, pf := range sectionPfs {
		cols[i].data, cols[i].row, cols[i].reg = recordedRun(t, optsFor(pf), run)
	}
	return cols
}

// assertColumnFromEveryTrace replays the trace of every column of cols
// under column pf's configuration and requires each replay to match
// executing pf.
func assertColumnFromEveryTrace(t *testing.T, name string, cols []columnRun, optsFor func(core.PrefetchPolicy) core.Options, pf core.PrefetchPolicy, exec columnRun) {
	t.Helper()
	for i, src := range cols {
		repRow, repReg := replayAs(t, optsFor(pf), src.data, relabelTo(pf))
		assertIdentical(t, fmt.Sprintf("%s: %v replayed from %v's trace", name, pf, sectionPfs[i]),
			exec.row, repRow, exec.reg, repReg)
	}
}

// TestVectorReplayIdentityCG covers the Table 1 sections — conventional,
// scatter/gather and page recoloring — for both fast-path settings: the
// replay must be exact whether or not the fast access engine runs.
func TestVectorReplayIdentityCG(t *testing.T) {
	m := workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift)
	modes := []workloads.CGMode{workloads.CGConventional, workloads.CGScatterGather, workloads.CGRecolor}
	for _, fastOff := range []bool{false, true} {
		for _, mode := range modes {
			name := fmt.Sprintf("%v/fastOff=%v", mode, fastOff)
			t.Run(name, func(t *testing.T) {
				optsFor := func(pf core.PrefetchPolicy) core.Options {
					kind := core.Conventional
					if mode != workloads.CGConventional || pf == core.PrefetchMC || pf == core.PrefetchBoth {
						kind = core.Impulse
					}
					cfg := sim.DefaultConfig()
					cfg.DisableFastPath = fastOff
					return core.Options{Controller: kind, Prefetch: pf, Config: &cfg}
				}
				cols := recordColumns(t, optsFor, func(s *core.System) (core.Row, error) {
					res, err := workloads.RunCG(s, tinyCG, mode, m)
					return res.Row, err
				})
				for i, pf := range sectionPfs {
					assertColumnFromEveryTrace(t, name, cols, optsFor, pf, cols[i])
				}
			})
		}
	}
}

// TestVectorReplayIdentityMMP covers the Table 2 sections (tile remap,
// software copy), one subtest per replaying column.
func TestVectorReplayIdentityMMP(t *testing.T) {
	modes := []workloads.MMPMode{workloads.MMPNoCopyTiled, workloads.MMPCopyTiled, workloads.MMPTileRemap}
	for _, mode := range modes {
		optsFor := func(pf core.PrefetchPolicy) core.Options {
			kind := core.Conventional
			if mode == workloads.MMPTileRemap || pf == core.PrefetchMC || pf == core.PrefetchBoth {
				kind = core.Impulse
			}
			return core.Options{Controller: kind, Prefetch: pf}
		}
		cols := recordColumns(t, optsFor, func(s *core.System) (core.Row, error) {
			res, err := workloads.RunMMP(s, tinyMMP, mode)
			return res.Row, err
		})
		for i, pf := range sectionPfs {
			name := fmt.Sprintf("%v/%v", mode, pf)
			t.Run(name, func(t *testing.T) {
				assertColumnFromEveryTrace(t, name, cols, optsFor, pf, cols[i])
			})
		}
	}
}
