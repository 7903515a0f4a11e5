// Package twin holds the analytical twins of the simulator: closed-form
// predictor models that take the same canonical experiment geometry a
// sweep family runs at and return the same cell metrics the simulator
// measures — cycles, hit ratios, latency percentiles, bus traffic,
// controller counters — in microseconds instead of milliseconds.
//
// A twin is not a curve fit. Each model is derived from the machine's
// timing parameters (internal/sim DefaultConfig) by composing the same
// closed-form pieces the Impulse paper uses to explain its results:
// TLB/L1/L2 hit ratios from stride, working-set size, and geometry;
// gather cost from row-buffer locality and bank-level parallelism; bus
// occupancy from traffic counts; cycles from a roofline-style sum of
// latency classes. The derivations, per-family error bounds, and
// eligibility rules live in docs/TWIN.md; internal/twin/validate pins
// the bounds against full simulation runs.
//
// Eligibility comes from the harness family registry's Eligibility
// records: families whose access streams are data-dependent (CG's sparse
// walk, pointer-linked IPC buffers, Cholesky) have no closed form and
// fall through to exact simulation.
package twin

import (
	"fmt"

	"impulse/internal/colres"
	"impulse/internal/harness"
	"impulse/internal/sim"
	"impulse/internal/stats"
)

// Cell is one predicted grid cell: the metric set a simulator-measured
// core.Row carries, minus the counters a given family's table never
// shows. Counter fields the model does not predict stay zero and are
// excluded from validation per family.
type Cell struct {
	Label string

	Cycles   uint64
	Loads    uint64
	Stores   uint64
	BusBytes uint64
	P50      uint64
	P95      uint64
	P99      uint64

	L1      float64
	L2      float64
	Mem     float64
	AvgLoad float64

	TLBMisses       uint64
	TLBWalkCost     uint64
	MCPrefetchHits  uint64
	MCTLBMisses     uint64
	ShadowReads     uint64
	ShadowDRAMReads uint64
	DRAMRowHits     uint64
	DRAMRowMisses   uint64
}

// Prediction is a predicted experiment grid: the twin-side analogue of
// harness.Grid, lowered into the same colres columnar schema so every
// renderer and view works unchanged.
type Prediction struct {
	Family   string
	Fast     bool
	Title    string
	Sections []string
	Columns  []string
	Cells    [][]Cell // [section][column], like harness.Grid
}

// Flat returns the cells in section-major, column-minor order — the
// order the simulator emits measured rows for the same family, which is
// what lets the validation harness match cells positionally.
func (p *Prediction) Flat() []Cell {
	var out []Cell
	for _, row := range p.Cells {
		out = append(out, row...)
	}
	return out
}

// Doc lowers the prediction into the columnar result schema. Speedups
// are computed against cell [0][0], exactly as harness.Grid does.
func (p *Prediction) Doc() *colres.Doc {
	d := &colres.Doc{Title: p.Title, Sections: p.Sections, Columns: p.Columns}
	base := p.Cells[0][0].Cycles
	for si, row := range p.Cells {
		for ci, c := range row {
			sp := 0.0
			if c.Cycles > 0 {
				sp = float64(base) / float64(c.Cycles)
			}
			d.Cells = append(d.Cells, colres.Cell{
				Section: uint32(si), Column: uint32(ci),
				Cycles: c.Cycles, Loads: c.Loads, Stores: c.Stores,
				BusBytes: c.BusBytes, P50: c.P50, P95: c.P95, P99: c.P99,
				L1: c.L1, L2: c.L2, Mem: c.Mem, AvgLoad: c.AvgLoad,
				Speedup: sp,
			})
		}
	}
	return d
}

// Columnar encodes the prediction as a columnar result blob.
func (p *Prediction) Columnar() []byte { return colres.Encode(p.Doc()) }

// Eligible reports whether a family has an analytical twin. For
// ineligible or unknown families it returns the human-readable reason
// from the harness registry (the single source of truth).
func Eligible(family string) (reason string, ok bool) {
	e, known := harness.FamilyEligibility(family)
	if !known {
		return fmt.Sprintf("unknown family %q", family), false
	}
	if e.Twin != "" {
		return e.Twin, false
	}
	return "", true
}

// Families returns the twin-eligible sweep families in canonical run
// order.
func Families() []string {
	var out []string
	for _, f := range harness.Families() {
		if f.Elig.Twin == "" {
			out = append(out, f.Name)
		}
	}
	return out
}

// Predict runs the family's twin at the named canned geometry. It
// returns an error carrying the registry reason for ineligible
// families.
func Predict(family string, fast bool) (*Prediction, error) {
	if reason, ok := Eligible(family); !ok {
		return nil, fmt.Errorf("twin: %s: %s", family, reason)
	}
	g := defaultGeom()
	switch family {
	case "superpage":
		return predictSuperpage(g, fast), nil
	case "sram":
		return predictSRAM(g, fast), nil
	case "stride":
		return predictStride(g, fast), nil
	}
	return nil, fmt.Errorf("twin: %s: eligible in the registry but no model implemented", family)
}

// geom is the machine geometry a model composes latencies from, all
// pulled from sim.DefaultConfig so the twins track the simulated
// machine's calibration, never a copy of it.
type geom struct {
	walk    uint64 // software TLB walk penalty
	l1Hit   uint64 // load-to-use on an L1 hit (the issue cycle)
	l2Hit   uint64 // load-to-use on an L2 hit
	memLead uint64 // issue + L2 probe + bus request + MC pipeline
	xfer    uint64 // line transfer cycles on the bus
	issue   uint64 // DRAM command-issue gap
	rowHit  uint64 // DRAM data-ready, open row
	rowMiss uint64 // DRAM data-ready, row opened first

	addrCalc uint64 // MC ALU cycles per remapped element address
	assemble uint64 // MC line-assembly cycles

	banks      uint64
	ptLine0    uint64 // first DRAM line of the controller page table
	lineBytes  uint64 // L2/DRAM/MC line
	l1Line     uint64
	pageBytes  uint64
	tlbEntries int
	pgTblSlots int    // controller PgTbl TLB entries
	sramLines  uint64 // controller prefetch SRAM capacity, lines
	descLines  uint64 // per-descriptor prefetch buffer capacity, lines
	l2Sets     uint64 // L2 sets spanned by one page (color granularity)
	l2Ways     uint64
}

func defaultGeom() geom {
	cfg := sim.DefaultConfig()
	return geom{
		walk:    cfg.TLBMissPenalty,
		l1Hit:   cfg.L1.HitCycles,
		l2Hit:   1 + cfg.L2.HitCycles,
		memLead: 1 + cfg.L2MissProbeCycles + cfg.Bus.RequestCycles + cfg.MC.PipelineCycles,
		xfer:    (cfg.MC.LineBytes + cfg.Bus.BytesPerCycle - 1) / cfg.Bus.BytesPerCycle,
		issue:   cfg.DRAM.IssueGap,
		rowHit:  cfg.DRAM.RowHit,
		rowMiss: cfg.DRAM.RowMiss,

		addrCalc: cfg.MC.AddrCalcCycles,
		assemble: cfg.MC.AssembleCycles,

		banks:      cfg.DRAM.Banks,
		ptLine0:    uint64(cfg.MC.PgTblBase) / cfg.MC.LineBytes,
		lineBytes:  cfg.MC.LineBytes,
		l1Line:     cfg.L1.LineBytes,
		pageBytes:  4096,
		tlbEntries: cfg.TLBEntries,
		pgTblSlots: cfg.MC.PgTblEntries,
		sramLines:  cfg.MC.SRAMBytes / cfg.MC.LineBytes,
		descLines:  cfg.MC.DescBufBytes / cfg.MC.LineBytes,
		l2Sets:     cfg.L2.Bytes / cfg.L2.LineBytes / cfg.L2.Ways,
		l2Ways:     cfg.L2.Ways,
	}
}

// classes accumulates (latency, count) load classes into the same
// power-of-two histogram the simulator's per-load Observe fills, so the
// twin's percentiles reproduce stats.LatencyHist.Percentile semantics
// exactly — in O(classes) instead of O(loads).
type classes struct {
	h stats.LatencyHist
}

func (c *classes) add(lat, n uint64) {
	if n == 0 {
		return
	}
	var one stats.LatencyHist
	one.Observe(lat)
	for i := range one.Buckets {
		c.h.Buckets[i] += one.Buckets[i] * n
	}
	c.h.Count += n
	c.h.Total += lat * n
	if lat > c.h.Max {
		c.h.Max = lat
	}
}

// fill writes the latency-derived metrics (AvgLoad, percentiles) into
// cell.
func (c *classes) fill(cell *Cell) {
	cell.AvgLoad = c.h.Mean()
	cell.P50 = c.h.Percentile(50)
	cell.P95 = c.h.Percentile(95)
	cell.P99 = c.h.Percentile(99)
}
