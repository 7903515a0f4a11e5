package core

import (
	"fmt"

	"impulse/internal/stats"
)

// Row captures the metrics the paper reports per configuration (the rows
// of Tables 1 and 2): execution time in cycles, per-level load hit ratios
// (divisor: total loads), and average load time.
type Row struct {
	Label    string
	Cycles   uint64
	L1Ratio  float64
	L2Ratio  float64
	MemRatio float64
	AvgLoad  float64
	Stats    stats.MemStats
}

// rowObserver, when set, sees every Row produced by Result or
// Section.End. The cmd binaries use it to register each measured row's
// counters into an obs.Registry so report/sweep/impulse-sim expose one
// uniform metrics surface.
var rowObserver func(Row)

// SetRowObserver installs f as the package-wide row observer (nil
// removes it). Not safe for concurrent use with running systems; call
// it once during setup. Systems built with a per-system RowObserver
// (Options.RowObserver) bypass the global observer entirely — that is
// how the parallel experiment pool keeps row observation deterministic:
// workers buffer rows locally and the pool replays them through EmitRow
// in submission order.
func SetRowObserver(f func(Row)) { rowObserver = f }

// EmitRow delivers r to the global row observer (if any). The harness
// pool uses it to replay per-task buffered rows in submission order
// after a parallel run, so registry contents are independent of worker
// scheduling. Call it only from one goroutine at a time.
func EmitRow(r Row) {
	if rowObserver != nil {
		rowObserver(r)
	}
}

func (s *System) observeRow(r Row) {
	if s.rowObs != nil {
		s.rowObs(r)
		return
	}
	EmitRow(r)
}

// Result summarizes the system's full run so far.
func (s *System) Result(label string) (Row, error) {
	st := s.Snapshot()
	if err := st.CheckLoadClassification(); err != nil {
		return Row{}, err
	}
	r := Row{
		Label:    label,
		Cycles:   s.Now(),
		L1Ratio:  st.L1HitRatio(),
		L2Ratio:  st.L2HitRatio(),
		MemRatio: st.MemHitRatio(),
		AvgLoad:  st.AvgLoadTime(),
		Stats:    st,
	}
	s.observeRow(r)
	return r, nil
}

// Section measures a timed portion of a run, NPB-style: initialization
// and data generation are excluded; remapping system calls and cache
// flushes issued inside the section are included (the paper charges them
// against Impulse).
type Section struct {
	s  *System
	st stats.MemStats
	t0 uint64
}

// BeginSection starts a timed section.
func (s *System) BeginSection() Section {
	return Section{s: s, st: s.Snapshot(), t0: s.Now()}
}

// End closes the section and reports its metrics.
func (sec Section) End(label string) (Row, error) {
	cur := sec.s.Snapshot()
	d := stats.Delta(&sec.st, &cur)
	if err := d.CheckLoadClassification(); err != nil {
		return Row{}, err
	}
	r := Row{
		Label:    label,
		Cycles:   sec.s.Now() - sec.t0,
		L1Ratio:  d.L1HitRatio(),
		L2Ratio:  d.L2HitRatio(),
		MemRatio: d.MemHitRatio(),
		AvgLoad:  d.AvgLoadTime(),
		Stats:    d,
	}
	sec.s.observeRow(r)
	return r, nil
}

// Speedup returns base time / r time, the paper's speedup convention
// (baseline = conventional system without prefetching).
func Speedup(base, r Row) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

func (r Row) String() string {
	return fmt.Sprintf("%s: %s cycles, L1 %.1f%%, L2 %.1f%%, mem %.1f%%, avg load %.2f",
		r.Label, stats.FormatCycles(r.Cycles), r.L1Ratio*100, r.L2Ratio*100, r.MemRatio*100, r.AvgLoad)
}
