package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"impulse/internal/core"
	"impulse/internal/obs"
	"impulse/internal/script"
	"impulse/internal/workloads"
)

// SimParams is one single-configuration run: a workload, its remapping
// mode and prefetch policy (together, one cell of the paper's tables),
// and the workload's geometry.
type SimParams struct {
	Workload string // cg|mmp|cholesky|spark|db|diag|ipc|script
	Mode     string // a spelling in the workload's mode table (SimModeHelp)
	Prefetch string // none|mc|l1|both
	N        int    // problem dimension; 0 means the workload's default
	Tile     int    // mmp and cholesky tile dimension
	CGIts    int    // cg inner iterations
	Niter    int    // cg outer iterations
	ClassS   bool   // cg: the NPB Class S geometry, overriding N, CGIts and Niter
	Script   string // script source (workload script)
}

// A simMode is one -mode spelling: the kernel variant it selects (the
// workload's mode constant for cg, mmp and cholesky; 0 conventional
// and 1 Impulse for the others) and whether that variant remaps memory.
type simMode struct {
	name    string
	variant int
	remaps  bool
}

var (
	convOrImpulse = []simMode{{"conventional", 0, false}, {"impulse", 1, true}}
	// tilingModes serves mmp and cholesky, whose mode constants agree.
	tilingModes = []simMode{
		{"nocopy", int(workloads.MMPNoCopyTiled), false},
		{"conventional", int(workloads.MMPNoCopyTiled), false},
		{"copy", int(workloads.MMPCopyTiled), false},
		{"remap", int(workloads.MMPTileRemap), true},
	}
)

// simModes is the mode table of single-configuration runs, in usage
// order. A variant's first spelling is its canonical name (SimMode).
var simModes = []struct {
	workload string
	modes    []simMode
}{
	{"cg", []simMode{
		{"conventional", int(workloads.CGConventional), false},
		{"sg", int(workloads.CGScatterGather), true},
		{"recolor", int(workloads.CGRecolor), true},
	}},
	{"mmp", tilingModes},
	{"cholesky", tilingModes},
	{"spark", []simMode{{"conventional", 0, false}, {"sg", 1, true}, {"impulse", 1, true}}},
	{"db", convOrImpulse},
	{"diag", convOrImpulse},
	{"ipc", convOrImpulse},
	{"script", convOrImpulse},
}

// lookupSimMode finds workload's mode spelled mode, and the canonical
// spelling of the variant it selects.
func lookupSimMode(workload, mode string) (m simMode, canonical string, err error) {
	for _, w := range simModes {
		if w.workload != workload {
			continue
		}
		for i, m := range w.modes {
			if m.name != mode {
				continue
			}
			for _, c := range w.modes[:i+1] {
				if c.variant == m.variant {
					return m, c.name, nil
				}
			}
		}
		return simMode{}, "", fmt.Errorf("unknown %s mode %q (%s)", workload, mode, modeNames(w.modes))
	}
	return simMode{}, "", fmt.Errorf("unknown workload %q", workload)
}

func modeNames(modes []simMode) string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return strings.Join(names, "|")
}

// SimMode checks mode against workload's mode table and returns the
// canonical spelling of the variant it selects (mmp's "conventional"
// is "nocopy").
func SimMode(workload, mode string) (string, error) {
	_, canonical, err := lookupSimMode(workload, mode)
	return canonical, err
}

// SimModeHelp lists every workload's mode spellings, for usage text.
func SimModeHelp() string {
	parts := make([]string, len(simModes))
	for i, w := range simModes {
		parts[i] = w.workload + ": " + modeNames(w.modes)
	}
	return strings.Join(parts, "; ")
}

// ParsePrefetch maps a prefetch policy's name (none|mc|l1|both) to the
// policy.
func ParsePrefetch(name string) (core.PrefetchPolicy, error) {
	for _, pf := range prefetchColumns {
		if pf.String() == name {
			return pf, nil
		}
	}
	return 0, fmt.Errorf("unknown prefetch policy %q (none|mc|l1|both)", name)
}

// RunSim runs one single-configuration experiment and prints its result
// row and the workload's result (cg's zeta, a checksum, mmp's and
// cholesky's match against the host reference) to out. newSystem builds
// each machine from the options RunSim picks — the controller through
// controllerFor, and the prefetch policy — and may attach observers. A
// non-nil trace records cg's matrix generation as an inputs phase.
func RunSim(p SimParams, newSystem func(core.Options) (*core.System, error), trace *obs.JobTrace, out io.Writer) error {
	m, _, err := lookupSimMode(p.Workload, p.Mode)
	if err != nil {
		return err
	}
	pf, err := ParsePrefetch(p.Prefetch)
	if err != nil {
		return err
	}
	opts := core.Options{Controller: controllerFor(m.remaps, pf), Prefetch: pf}
	s, err := newSystem(opts)
	if err != nil {
		return err
	}
	switch p.Workload {
	case "cg":
		par := workloads.CGPaperGeometry()
		par.CGIts, par.Niter = p.CGIts, p.Niter
		if p.N > 0 {
			par.N = p.N
		}
		if p.ClassS {
			par = workloads.CGClassS()
		}
		if err := par.Validate(); err != nil {
			return err
		}
		start := time.Now()
		a := workloads.MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
		trace.Phase("inputs", start, time.Now())
		res, err := workloads.RunCG(s, par, workloads.CGMode(m.variant), a)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nzeta=%.13f rnorm=%.3e nnz=%d\n", res.Row, res.Zeta, res.RNorm, res.NNZ)
		return err
	case "mmp":
		par := workloads.MMPDefault()
		if p.N > 0 {
			par.N = p.N
		}
		par.Tile = p.Tile
		res, err := workloads.RunMMP(s, par, workloads.MMPMode(m.variant))
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, matchStatus(res.Checksum, workloads.RefMMP(par)))
		return err
	case "cholesky":
		n := 128
		if p.N > 0 {
			n = p.N
		}
		res, err := workloads.RunCholesky(s, n, p.Tile, workloads.CholeskyMode(m.variant))
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, matchStatus(res.Checksum, workloads.RefCholesky(n, p.Tile)))
		return err
	case "spark":
		side := 200
		if p.N > 0 {
			side = p.N
		}
		mesh := workloads.MakeSparkMesh(side, side)
		res, err := workloads.RunSpark(s, mesh, 1, m.remaps)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nchecksum=%v (%s)\n", res.Row, res.Checksum, mesh)
		return err
	case "db":
		par := workloads.DBDefault()
		if p.N > 0 {
			par.Records = p.N
		}
		proj, err := workloads.RunDBProjection(s, par, m.remaps)
		if err != nil {
			return err
		}
		if s, err = newSystem(opts); err != nil {
			return err
		}
		idx, err := workloads.RunDBIndexScan(s, par, 16, m.remaps)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "projection: %v\nindex scan: %v\n", proj.Row, idx.Row)
		return err
	case "diag":
		dim := 512
		if p.N > 0 {
			dim = p.N
		}
		res, err := workloads.RunDiagonal(s, dim, 4, m.remaps)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, res)
		return err
	case "ipc":
		res, err := workloads.RunIPC(s, 16, 128, 8, m.remaps)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nchecksum=%v\n", res.Row, res.Checksum)
		return err
	case "script":
		prog, err := script.Parse(p.Script)
		if err != nil {
			return err
		}
		res, err := script.Run(s, prog)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%v\nchecksum=%v\n", res.Row, res.Checksum)
		return err
	}
	return fmt.Errorf("harness: workload %q has modes but no runner", p.Workload)
}

// matchStatus marks a checksum against its host reference.
func matchStatus(got, want float64) string {
	if got != want {
		return "MISMATCH"
	}
	return "ok"
}
