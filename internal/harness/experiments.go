package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"impulse/internal/workloads"
)

// Eligibility records, per family, whether the analytical twin tier
// applies. This is the one source of truth the service's twin tier and
// internal/twin read — there are deliberately no per-tier switch
// statements elsewhere.
type Eligibility struct {
	// Twin is why no closed-form analytical twin exists for the family
	// ("" = the twin tier can predict it).
	Twin string
}

// Family is one named extension/ablation experiment with canned
// geometries: the default geometry cmd/sweep has always run, plus a
// reduced "fast" geometry (mirroring cmd/report -fast) for smoke tests
// and service jobs that want an answer in seconds. This table is the
// single source of truth for every entry point that runs sweeps by
// name — cmd/sweep's -exp flag and the impulsed service's
// {"kind":"sweep"} jobs — so a family added here appears everywhere at
// once.
type Family struct {
	Name string
	Desc string
	Elig Eligibility
	Run  func(ctx context.Context, fast bool, w io.Writer) error
}

// sweepCG is the CG geometry the ablation sweeps run at.
func sweepCG(fast bool) workloads.CGParams {
	par := workloads.CGParams{N: 4096, Nonzer: 6, Niter: 1, CGIts: 4, Shift: 10, RCond: 0.1}
	if fast {
		par.N, par.CGIts = 2048, 2
	}
	return par
}

// SuperpageGeometry returns the page count and sweep count the
// "superpage" family runs at. Exported so the analytical twin models
// the exact geometry the simulator executes.
func SuperpageGeometry(fast bool) (pages, sweeps int) {
	if fast {
		return 512, 2
	}
	return 2048, 4
}

// SRAMGeometry returns the prefetch-buffer sizes the "sram" family
// sweeps over.
func SRAMGeometry(fast bool) []uint64 {
	if fast {
		return []uint64{256, 1024, 4096}
	}
	return []uint64{128, 256, 512, 1024, 2048, 4096, 8192}
}

// SRAMWorkload returns the workload shape of the "sram" family: how
// many sequential streams interleave and how many bytes each walks.
func SRAMWorkload() (streams int, perStream uint64) {
	return 12, 128 << 10
}

// StrideGeometry returns the indirection strides and element count the
// "stride" family sweeps over.
func StrideGeometry(fast bool) (strides []int, elems int) {
	if fast {
		return []int{1, 4, 16}, 4096
	}
	return []int{1, 2, 4, 8, 16, 32}, 16384
}

// noClosedForm is the twin-ineligibility reason shared by every family
// whose reference stream is CG's sparse matrix walk.
const noClosedForm = "CG's sparse access stream is data-dependent; no closed form"

// Families returns the sweep families in canonical run order.
func Families() []Family {
	return []Family{
		{"scheduler", "DRAM scheduler ablation (in-order vs row-major)",
			Eligibility{Twin: noClosedForm},
			func(ctx context.Context, fast bool, w io.Writer) error {
				return SchedulerAblation(ctx, sweepCG(fast), w)
			}},
		{"superpage", "superpage TLB experiment ([21])",
			Eligibility{},
			func(ctx context.Context, fast bool, w io.Writer) error {
				pages, sweeps := SuperpageGeometry(fast)
				return SuperpageExperiment(ctx, pages, sweeps, w)
			}},
		{"ipc", "IPC message gather (§6)",
			Eligibility{Twin: "pointer-linked message buffers make the walk data-dependent"},
			func(ctx context.Context, fast bool, w io.Writer) error {
				if fast {
					return IPCExperiment(ctx, 8, 128, 2, w)
				}
				return IPCExperiment(ctx, 32, 1024, 4, w)
			}},
		{"sram", "controller prefetch SRAM sweep",
			Eligibility{},
			func(ctx context.Context, fast bool, w io.Writer) error {
				return PrefetchBufferSweep(ctx, SRAMGeometry(fast), w)
			}},
		{"stride", "gather cost vs indirection stride",
			Eligibility{},
			func(ctx context.Context, fast bool, w io.Writer) error {
				strides, elems := StrideGeometry(fast)
				return GatherStrideSweep(ctx, strides, elems, w)
			}},
		{"policy", "DRAM page-policy ablation (open vs closed)",
			Eligibility{Twin: noClosedForm},
			func(ctx context.Context, fast bool, w io.Writer) error {
				return PagePolicyAblation(ctx, sweepCG(fast), w)
			}},
		{"geometry", "L2-capacity sensitivity",
			Eligibility{Twin: noClosedForm},
			func(ctx context.Context, fast bool, w io.Writer) error {
				sizes := []uint64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
				if fast {
					sizes = []uint64{128 << 10, 256 << 10, 512 << 10}
				}
				return CacheGeometrySweep(ctx, sweepCG(fast), sizes, w)
			}},
		{"cholesky", "tiled Cholesky factorization (§3.2 extension)",
			Eligibility{Twin: "data-dependent tiled factorization"},
			func(ctx context.Context, fast bool, w io.Writer) error {
				if fast {
					return CholeskyExperiment(ctx, 128, 32, w)
				}
				return CholeskyExperiment(ctx, 256, 32, w)
			}},
		{"spark", "Spark98-style symmetric SMVP (§3.1 [17])",
			Eligibility{Twin: "mesh-dependent gather stream"},
			func(ctx context.Context, fast bool, w io.Writer) error {
				if fast {
					return SparkExperiment(ctx, 120, 120, 1, w)
				}
				return SparkExperiment(ctx, 300, 300, 1, w)
			}},
		{"db", "database projection and index scans",
			Eligibility{Twin: "selectivity-dependent scan stream"},
			func(ctx context.Context, fast bool, w io.Writer) error {
				p := workloads.DBDefault()
				if fast {
					p.Records = 16 << 10
				}
				return DBExperiment(ctx, p, 16, w)
			}},
		{"superscalar", "speedup vs issue width (§6 prediction)",
			Eligibility{Twin: noClosedForm},
			func(ctx context.Context, fast bool, w io.Writer) error {
				if fast {
					return SuperscalarExperiment(ctx, sweepCG(true), []uint64{1, 2, 4}, w)
				}
				par := workloads.CGParams{N: 14000, Nonzer: 7, Niter: 1, CGIts: 3, Shift: 20, RCond: 0.1}
				return SuperscalarExperiment(ctx, par, []uint64{1, 2, 4, 8}, w)
			}},
	}
}

// FamilyEligibility returns the eligibility record for a family; ok
// reports whether the name is known.
func FamilyEligibility(name string) (Eligibility, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f.Elig, true
		}
	}
	return Eligibility{}, false
}

// FamilyNames returns the valid family names in run order.
func FamilyNames() []string {
	fams := Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// RunFamily runs one family by name.
func RunFamily(ctx context.Context, name string, fast bool, w io.Writer) error {
	for _, f := range Families() {
		if f.Name == name {
			return f.Run(ctx, fast, w)
		}
	}
	return fmt.Errorf("harness: unknown sweep family %q; valid: %s",
		name, strings.Join(FamilyNames(), ", "))
}
