package harness_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"impulse/internal/core"
	"impulse/internal/harness"
	"impulse/internal/service"
)

// simScript is a 32-element strided column sum, written for both
// machines: an Impulse strided alias on one, plain strided loads on the
// other.
const simScript = `
alloc mat 65536
set r1 24
fset f0 0.0
repeat 32
  storef mat r1 f0
  fadd f0 f0 0.5
  add r1 r1 2048
end
flush mat 0 65536
impulse
  stride col 8 2048 32 0
  retarget col mat 63512 purge 24
  set r1 0
  repeat 32
    loadf f1 col r1
    acc f1
    add r1 r1 8
  end
else
  set r1 24
  repeat 32
    loadf f1 mat r1
    acc f1
    add r1 r1 2048
  end
end
`

// cli is the run `impulse-sim -workload w -mode m -prefetch pf -n n`
// makes from its flag defaults, at the small geometry the goldens use:
// -cgits 2 for cg, -tile 16 for mmp and cholesky, -file holding
// simScript for script.
func cli(w, m, pf string, n int) harness.SimParams {
	p := harness.SimParams{Workload: w, Mode: m, Prefetch: pf, N: n, Tile: 32, CGIts: 8, Niter: 1}
	switch w {
	case "cg":
		p.CGIts = 2
	case "mmp", "cholesky":
		p.Tile = 16
	case "script":
		p.Script = simScript
	}
	return p
}

// TestRunSimGolden pins every single-configuration output to the bytes
// impulse-sim printed for the same flags while it and the service each
// kept their own copy of the runner, aliases included. The service's
// workloads also run as sim jobs through service.Execute, which must
// print the same bytes.
func TestRunSimGolden(t *testing.T) {
	for _, tc := range []struct {
		p    harness.SimParams
		want string
	}{
		{cli("cg", "conventional", "none", 300), "CG conventional/none: 591.4K cycles, L1 86.7%, L2 11.6%, mem 1.7%, avg load 2.57\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "conventional", "both", 300), "CG conventional/both: 373.5K cycles, L1 99.2%, L2 0.7%, mem 0.1%, avg load 1.12\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "sg", "none", 300), "CG scatter/gather/none: 646.0K cycles, L1 80.7%, L2 16.0%, mem 3.3%, avg load 4.09\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "sg", "both", 300), "CG scatter/gather/both: 340.0K cycles, L1 98.8%, L2 0.3%, mem 0.9%, avg load 1.52\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "recolor", "none", 300), "CG page recoloring/none: 649.5K cycles, L1 86.7%, L2 11.0%, mem 2.3%, avg load 2.81\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "recolor", "both", 300), "CG page recoloring/both: 394.3K cycles, L1 99.3%, L2 0.7%, mem 0.1%, avg load 1.11\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "conventional", "mc", 300), "CG conventional/mc: 543.6K cycles, L1 86.7%, L2 11.6%, mem 1.7%, avg load 2.25\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("cg", "conventional", "l1", 300), "CG conventional/l1: 409.8K cycles, L1 99.0%, L2 0.7%, mem 0.4%, avg load 1.35\n" +
			"zeta=19.9570374118494 rnorm=4.014e-01 nnz=15550\n"},
		{cli("mmp", "nocopy", "none", 64), "MMP no-copy tiled/none: 2.33M cycles, L1 95.9%, L2 4.0%, mem 0.1%, avg load 1.30\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "nocopy", "both", 64), "MMP no-copy tiled/both: 2.30M cycles, L1 96.8%, L2 3.2%, mem 0.0%, avg load 1.25\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "copy", "none", 64), "MMP tile copying/none: 2.35M cycles, L1 98.6%, L2 1.4%, mem 0.0%, avg load 1.12\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "copy", "both", 64), "MMP tile copying/both: 2.30M cycles, L1 99.7%, L2 0.3%, mem 0.0%, avg load 1.03\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "remap", "none", 64), "MMP tile remapping/none: 2.37M cycles, L1 98.3%, L2 1.3%, mem 0.4%, avg load 1.27\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "remap", "both", 64), "MMP tile remapping/both: 2.25M cycles, L1 99.8%, L2 0.0%, mem 0.2%, avg load 1.06\n" +
			"checksum=2250 (ok)\n"},
		{cli("mmp", "conventional", "none", 64), "MMP no-copy tiled/none: 2.33M cycles, L1 95.9%, L2 4.0%, mem 0.1%, avg load 1.30\n" +
			"checksum=2250 (ok)\n"},
		{cli("cholesky", "nocopy", "none", 64), "Cholesky no-copy/none: 478.8K cycles, L1 99.5%, L2 0.5%, mem 0.0%, avg load 1.04\n" +
			"checksum=1249.1085273451238 (ok)\n"},
		{cli("cholesky", "copy", "none", 64), "Cholesky copy/none: 511.5K cycles, L1 99.3%, L2 0.7%, mem 0.0%, avg load 1.05\n" +
			"checksum=1249.1085273451238 (ok)\n"},
		{cli("cholesky", "remap", "none", 64), "Cholesky remap/none: 523.6K cycles, L1 97.9%, L2 1.7%, mem 0.4%, avg load 1.29\n" +
			"checksum=1249.1085273451238 (ok)\n"},
		{cli("cholesky", "conventional", "none", 64), "Cholesky no-copy/none: 478.8K cycles, L1 99.5%, L2 0.5%, mem 0.0%, avg load 1.04\n" +
			"checksum=1249.1085273451238 (ok)\n"},
		{cli("spark", "conventional", "none", 30), "spark conventional: 73.2K cycles, L1 87.5%, L2 12.5%, mem 0.0%, avg load 1.87\n" +
			"checksum=4264.750372023811 (spark mesh: 900 nodes, 3422 edges)\n"},
		{cli("spark", "sg", "none", 30), "spark scatter/gather: 91.0K cycles, L1 82.4%, L2 16.2%, mem 1.4%, avg load 2.96\n" +
			"checksum=4264.750372023811 (spark mesh: 900 nodes, 3422 edges)\n"},
		{cli("spark", "impulse", "none", 30), "spark scatter/gather: 91.0K cycles, L1 82.4%, L2 16.2%, mem 1.4%, avg load 2.96\n" +
			"checksum=4264.750372023811 (spark mesh: 900 nodes, 3422 edges)\n"},
		{cli("db", "conventional", "none", 4096), "projection: db projection conventional: 106.8K cycles, L1 0.0%, L2 50.0%, mem 50.0%, avg load 24.08\n" +
			"index scan: db index-scan conventional: 14.1K cycles, L1 43.6%, L2 11.1%, mem 45.3%, avg load 25.49\n"},
		{cli("db", "impulse", "none", 4096), "projection: db projection impulse: 37.7K cycles, L1 75.0%, L2 18.8%, mem 6.2%, avg load 6.54\n" +
			"index scan: db index-scan impulse: 21.7K cycles, L1 75.0%, L2 18.8%, mem 6.2%, avg load 16.78\n"},
		{cli("diag", "conventional", "none", 64), "diagonal conventional: 8928 cycles, 24576 bus bytes, L1 0.0%\n"},
		{cli("diag", "impulse", "none", 64), "diagonal impulse: 3416 cycles, 2048 bus bytes, L1 75.0%\n"},
		{cli("diag", "conventional", "l1", 64), "diagonal conventional: 9500 cycles, 26496 bus bytes, L1 0.0%\n"},
		{cli("ipc", "conventional", "none", 0), "ipc software-gather: 154.2K cycles, L1 83.2%, L2 16.8%, mem 0.0%, avg load 2.18\n" +
			"checksum=1.34209536e+08\n"},
		{cli("ipc", "impulse", "none", 0), "ipc impulse-gather: 193.8K cycles, L1 75.0%, L2 18.8%, mem 6.2%, avg load 6.92\n" +
			"checksum=1.34209536e+08\n"},
		{cli("script", "conventional", "none", 0), "script: 6379 cycles, L1 0.0%, L2 0.0%, mem 100.0%, avg load 38.12\n" +
			"checksum=248\n"},
		{cli("script", "impulse", "none", 0), "script: 6393 cycles, L1 75.0%, L2 18.8%, mem 6.2%, avg load 22.00\n" +
			"checksum=248\n"},
	} {
		p := tc.p
		t.Run(p.Workload+"/"+p.Mode+"/"+p.Prefetch, func(t *testing.T) {
			var out bytes.Buffer
			if err := harness.RunSim(p, core.NewSystem, nil, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != tc.want {
				t.Errorf("RunSim printed\n%s\nwant\n%s", out.Bytes(), tc.want)
			}
			switch p.Workload {
			case "cg", "mmp", "diag", "ipc":
			default:
				return
			}
			spec, err := service.Spec{Kind: "sim", Workload: p.Workload, Mode: p.Mode, Prefetch: p.Prefetch,
				N: p.N, Tile: p.Tile, CGIts: p.CGIts, Niter: p.Niter}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			res, err := service.Execute(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Output) != tc.want {
				t.Errorf("sim job printed\n%s\nwant\n%s", res.Output, tc.want)
			}
		})
	}
}

// TestRunSimRejects: an unknown workload, mode or prefetch policy is an
// error before any machine is built; a mode another workload knows is
// still unknown to this one.
func TestRunSimRejects(t *testing.T) {
	for _, tc := range []struct {
		p    harness.SimParams
		want string
	}{
		{cli("diag", "foo", "none", 64), `unknown diag mode "foo" (conventional|impulse)`},
		{cli("cg", "impulse", "none", 300), `unknown cg mode "impulse" (conventional|sg|recolor)`},
		{cli("mmp", "sg", "none", 64), `unknown mmp mode "sg" (nocopy|conventional|copy|remap)`},
		{cli("spark", "", "none", 30), `unknown spark mode ""`},
		{cli("cg", "conventional", "all", 300), `unknown prefetch policy "all"`},
		{cli("lu", "conventional", "none", 64), `unknown workload "lu"`},
	} {
		built := false
		err := harness.RunSim(tc.p, func(o core.Options) (*core.System, error) {
			built = true
			return core.NewSystem(o)
		}, nil, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err %v, want %q", tc.p, err, tc.want)
		}
		if built {
			t.Errorf("%+v: built a machine for a rejected run", tc.p)
		}
	}
}
