package sim

import (
	"impulse/internal/obs"
	"impulse/internal/timeline"
)

// AttachObs threads an observability hub through every component of the
// machine: trace tracks for the CPU's memory pipeline, the L2 port, the
// bus, the controller, and each DRAM bank; windowed series metrics for
// bus/DRAM occupancy and per-level load classification; and registry
// entries for every MemStats counter plus the shared resources'
// accounting and the fast table's host-side counters (sim.fast.*).
// Attaching is observation only — it never changes a simulated cycle
// (see TestObsDoesNotPerturbTiming).
func (m *Machine) AttachObs(h *obs.Hub) {
	m.obs = h
	m.cpuTrack = h.Track("cpu")
	m.Bus.AttachObs(h)
	m.MC.AttachObs(h)
	m.DRAM.AttachObs(h)

	l2t := h.Track("l2port")
	m.l2port.Observe(func(start, end timeline.Time) {
		h.Span(l2t, "l2", start, end)
	})

	r := h.Reg()
	r.Gauge("machine.cycles", func() uint64 { return m.clock })
	r.Gauge("l2port.busy_cycles", m.l2port.BusyCycles)
	r.Gauge("l2port.reservations", m.l2port.Uses)
	r.Counter("sim.fast.hits", &m.fastHits)
	r.Counter("sim.fast.shadow_hits", &m.fastShadowHits)
	r.Counter("sim.fast.invalidations", &m.fastInvalidations)
	m.St.Register(r, "stats.")
}

// obsLoad records one load's series classification and, for loads that
// left the CPU, a span covering its full latency. Called after finishLoad
// has advanced the clock.
func (m *Machine) obsLoad(start timeline.Time, lvl TraceLevel) {
	h := m.obs
	switch lvl {
	case LevelL1:
		h.Event(obs.L1Hit, start)
	case LevelL2:
		h.Event(obs.L1Miss, start)
		h.Event(obs.L2Hit, start)
		h.Span(m.cpuTrack, "load L2", start, m.clock)
	case LevelMem:
		h.Event(obs.L1Miss, start)
		h.Event(obs.L2Miss, start)
		h.Span(m.cpuTrack, "load mem", start, m.clock)
	}
}
