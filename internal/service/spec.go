// Package service is the impulsed experiment service: a long-lived,
// concurrent front end over the experiment harness. It accepts
// experiment specs over HTTP/JSON, canonicalizes and hashes them,
// executes them on a bounded job queue layered over the internal/harness
// pool (sharing the process-wide cell memo across every request), and
// deduplicates identical in-flight submissions single-flight style so N
// clients asking the same capacity-planning question cost one
// simulation.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"impulse/internal/harness"
	"impulse/internal/workloads"
)

// Spec describes one experiment submission. Kind selects the experiment
// family; the remaining fields parameterize it and carry each kind's
// CLI defaults when zero, so the same spec always means the same
// experiment no matter which fields the client spelled out. A
// normalized spec is canonical: byte-identical canonical encoding (and
// therefore cache key) for every way of writing the same request.
type Spec struct {
	// Kind: "table1", "table2", "figure1", "sweep", or "sim".
	Kind string `json:"kind"`

	// Family names the sweep family for kind "sweep" (harness.FamilyNames).
	Family string `json:"family,omitempty"`
	// Fast selects each family's reduced geometry (kind "sweep" only).
	Fast bool `json:"fast,omitempty"`

	// Format is "text" (default, the CLI table rendering), "json" (Grid
	// JSON), or "columnar" (the raw columnar result blob, served as the
	// archive keeps it, with no re-encoding; see docs/RESULTS.md); kinds
	// "table1" and "table2" only.
	Format string `json:"format,omitempty"`

	// CG / MMP / figure1 geometry (defaults match the CLI flags).
	N      int     `json:"n,omitempty"`
	Nonzer int     `json:"nonzer,omitempty"`
	Niter  int     `json:"niter,omitempty"`
	CGIts  int     `json:"cgits,omitempty"`
	Shift  float64 `json:"shift,omitempty"`
	RCond  float64 `json:"rcond,omitempty"`
	Tile   int     `json:"tile,omitempty"`
	Dim    int     `json:"dim,omitempty"`
	Sweeps int     `json:"sweeps,omitempty"`

	// Single-configuration runs (kind "sim", run by harness.RunSim as
	// cmd/impulse-sim runs them): Workload cg|mmp|diag|ipc, a mode from
	// the runner's mode table, and a prefetch policy.
	Workload string `json:"workload,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Prefetch string `json:"prefetch,omitempty"`

	// Tier requests a serving tier for kind "sweep": "twin" asks for the
	// analytical twin (internal/twin), answered synchronously in
	// microseconds for eligible families; ineligible families fall
	// through to full simulation with the tier cleared, so they share
	// the simulation tier's result cache. Empty means simulate.
	Tier string `json:"tier,omitempty"`
}

// TierTwin is the analytical-twin serving tier (docs/TWIN.md).
const TierTwin = "twin"

// specLimit bounds accepted geometries: the service answers interactive
// capacity-planning queries, not day-long batch runs, and a shared
// daemon must not let one request allocate unbounded simulated memory.
const (
	maxDim    = 100000
	maxIts    = 200
	maxSweeps = 64
)

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Normalize validates s and returns a copy with every defaultable field
// filled in, so equal experiments hash equally. It is the single place
// service-side defaults live; they deliberately equal the corresponding
// CLI defaults (cmd/table1, cmd/table2, cmd/sweep, cmd/impulse-sim) so
// a service job and a direct CLI invocation of the same experiment are
// byte-identical.
func (s Spec) Normalize() (Spec, error) {
	n := s
	if n.Tier != "" && n.Tier != TierTwin {
		return n, fmt.Errorf("unknown tier %q (only %q)", n.Tier, TierTwin)
	}
	if n.Tier != "" && n.Kind != "sweep" {
		return n, fmt.Errorf("tier %q: only sweep jobs have an analytical twin tier", n.Tier)
	}
	switch n.Kind {
	case "table1":
		def := workloads.CGPaperGeometry()
		def.CGIts = 8 // cmd/table1's default (paper: 25, -full)
		if n.N == 0 {
			n.N = def.N
		}
		if n.Nonzer == 0 {
			n.Nonzer = def.Nonzer
		}
		if n.Niter == 0 {
			n.Niter = def.Niter
		}
		if n.CGIts == 0 {
			n.CGIts = def.CGIts
		}
		if n.Shift == 0 {
			n.Shift = def.Shift
		}
		if n.RCond == 0 {
			n.RCond = def.RCond
		}
		if n.N < 16 || n.N > maxDim {
			return n, fmt.Errorf("table1: n=%d out of range [16, %d]", n.N, maxDim)
		}
		if n.Nonzer < 1 || n.Nonzer > 64 {
			return n, fmt.Errorf("table1: nonzer=%d out of range [1, 64]", n.Nonzer)
		}
		if err := (workloads.CGParams{N: n.N, Nonzer: n.Nonzer}).Validate(); err != nil {
			return n, fmt.Errorf("table1: %v", err)
		}
		if n.Niter < 1 || n.Niter > maxIts || n.CGIts < 1 || n.CGIts > maxIts {
			return n, fmt.Errorf("table1: niter=%d/cgits=%d out of range [1, %d]", n.Niter, n.CGIts, maxIts)
		}
		if err := normalizeFormat(&n); err != nil {
			return n, err
		}
		n.Family, n.Fast, n.Tile, n.Dim, n.Sweeps, n.Workload, n.Mode, n.Prefetch = "", false, 0, 0, 0, "", "", ""
	case "table2":
		def := workloads.MMPDefault()
		if n.N == 0 {
			n.N = def.N
		}
		if n.Tile == 0 {
			n.Tile = def.Tile
		}
		if n.N < 16 || n.N > 2048 {
			return n, fmt.Errorf("table2: n=%d out of range [16, 2048]", n.N)
		}
		if p := (workloads.MMPParams{N: n.N, Tile: n.Tile}); p.Validate() != nil {
			return n, fmt.Errorf("table2: %v", p.Validate())
		}
		if err := normalizeFormat(&n); err != nil {
			return n, err
		}
		n.Family, n.Fast, n.Nonzer, n.Niter, n.CGIts, n.Shift, n.RCond, n.Dim, n.Sweeps, n.Workload, n.Mode, n.Prefetch =
			"", false, 0, 0, 0, 0, 0, 0, 0, "", "", ""
	case "figure1":
		if n.Dim == 0 {
			n.Dim = 512
		}
		if n.Sweeps == 0 {
			n.Sweeps = 4
		}
		if n.Dim < 16 || n.Dim > 4096 {
			return n, fmt.Errorf("figure1: dim=%d out of range [16, 4096]", n.Dim)
		}
		if n.Sweeps < 1 || n.Sweeps > maxSweeps {
			return n, fmt.Errorf("figure1: sweeps=%d out of range [1, %d]", n.Sweeps, maxSweeps)
		}
		n.Family, n.Fast, n.Format, n.N, n.Nonzer, n.Niter, n.CGIts, n.Shift, n.RCond, n.Tile, n.Workload, n.Mode, n.Prefetch =
			"", false, "", 0, 0, 0, 0, 0, 0, 0, "", "", ""
	case "sweep":
		if n.Family == "" {
			return n, fmt.Errorf("sweep: missing family; valid: %s", strings.Join(harness.FamilyNames(), ", "))
		}
		if !contains(harness.FamilyNames(), n.Family) {
			return n, fmt.Errorf("sweep: unknown family %q; valid: %s", n.Family, strings.Join(harness.FamilyNames(), ", "))
		}
		n.Format, n.N, n.Nonzer, n.Niter, n.CGIts, n.Shift, n.RCond, n.Tile, n.Dim, n.Sweeps, n.Workload, n.Mode, n.Prefetch =
			"", 0, 0, 0, 0, 0, 0, 0, 0, 0, "", "", ""
	case "sim":
		if n.Workload == "" {
			n.Workload = "cg"
		}
		if n.Mode == "" {
			n.Mode = "conventional"
		}
		if n.Prefetch == "" {
			n.Prefetch = "none"
		}
		if !contains([]string{"cg", "mmp", "diag", "ipc"}, n.Workload) {
			return n, fmt.Errorf("sim: unknown workload %q (cg|mmp|diag|ipc)", n.Workload)
		}
		mode, err := harness.SimMode(n.Workload, n.Mode)
		if err != nil {
			return n, fmt.Errorf("sim: %v", err)
		}
		n.Mode = mode
		if _, err := harness.ParsePrefetch(n.Prefetch); err != nil {
			return n, fmt.Errorf("sim: %v", err)
		}
		switch n.Workload {
		case "cg":
			def := workloads.CGPaperGeometry()
			if n.N == 0 {
				n.N = def.N
			}
			if n.CGIts == 0 {
				n.CGIts = 8
			}
			if n.Niter == 0 {
				n.Niter = 1
			}
			if n.N < 16 || n.N > maxDim || n.CGIts < 1 || n.CGIts > maxIts || n.Niter < 1 || n.Niter > maxIts {
				return n, fmt.Errorf("sim: cg geometry n=%d cgits=%d niter=%d out of range", n.N, n.CGIts, n.Niter)
			}
			n.Tile = 0
		case "mmp":
			def := workloads.MMPDefault()
			if n.N == 0 {
				n.N = def.N
			}
			if n.Tile == 0 {
				n.Tile = def.Tile
			}
			if p := (workloads.MMPParams{N: n.N, Tile: n.Tile}); p.Validate() != nil || n.N > 2048 {
				return n, fmt.Errorf("sim: bad mmp geometry n=%d tile=%d", n.N, n.Tile)
			}
			n.CGIts, n.Niter = 0, 0
		case "diag":
			if n.N == 0 {
				n.N = 512
			}
			if n.N < 16 || n.N > 4096 {
				return n, fmt.Errorf("sim: diag n=%d out of range [16, 4096]", n.N)
			}
			n.CGIts, n.Niter, n.Tile = 0, 0, 0
		case "ipc":
			n.N, n.CGIts, n.Niter, n.Tile = 0, 0, 0, 0
		}
		n.Family, n.Fast, n.Format, n.Nonzer, n.Shift, n.RCond, n.Dim, n.Sweeps = "", false, "", 0, 0, 0, 0, 0
	case "":
		return n, fmt.Errorf("missing kind (table1|table2|figure1|sweep|sim)")
	default:
		return n, fmt.Errorf("unknown kind %q (table1|table2|figure1|sweep|sim)", n.Kind)
	}
	return n, nil
}

func normalizeFormat(n *Spec) error {
	if n.Format == "" {
		n.Format = "text"
	}
	if n.Format != "text" && n.Format != "json" && n.Format != "columnar" {
		return fmt.Errorf("format %q must be \"text\", \"json\", or \"columnar\"", n.Format)
	}
	return nil
}

// Canonical renders a normalized spec as a deterministic key=value
// string with a fixed field order — the preimage of Hash. Field order
// and formatting are frozen: changing them invalidates every cached
// result keyed on the hash, so treat this like a wire format.
func (s Spec) Canonical() string {
	c := fmt.Sprintf(
		"kind=%s&family=%s&fast=%t&format=%s&n=%d&nonzer=%d&niter=%d&cgits=%d&shift=%g&rcond=%g&tile=%d&dim=%d&sweeps=%d&workload=%s&mode=%s&prefetch=%s",
		s.Kind, s.Family, s.Fast, s.Format, s.N, s.Nonzer, s.Niter, s.CGIts,
		s.Shift, s.RCond, s.Tile, s.Dim, s.Sweeps, s.Workload, s.Mode, s.Prefetch)
	// Appended only when set, so every pre-tier spec's canonical encoding
	// (and cached hash) is unchanged.
	if s.Tier != "" {
		c += "&tier=" + s.Tier
	}
	return c
}

// Hash is the single-flight / result-cache key: a short hex digest of
// the canonical encoding.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:8])
}

// ParseSpec decodes and normalizes a JSON spec, rejecting unknown
// fields so a typo'd parameter fails loudly instead of silently running
// the default experiment.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("bad spec: %w", err)
	}
	return s.Normalize()
}
