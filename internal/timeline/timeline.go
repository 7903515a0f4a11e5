// Package timeline provides the simulator's notion of time and of
// exclusive hardware resources.
//
// The simulator is execution-driven, not event-driven: a single-issue CPU
// walks forward through the program, and every hardware unit a memory
// access touches (bus, L2 port, controller, DRAM banks) is modeled as a
// Resource with a busy-until horizon. Background activity (prefetches,
// writebacks) advances those horizons without blocking the CPU, which is
// how the model captures contention — e.g. the paper's observation that L1
// prefetching can hurt matrix product by contending for the L2.
package timeline

// Time is a cycle count since simulation start.
type Time = uint64

// AcquireObserver receives each reservation made on a Resource, after its
// start/end have been decided. Observers must not mutate the resource;
// they exist so the observability layer can attribute busy time to cycle
// windows and trace tracks without the resource knowing about either.
type AcquireObserver func(start, end Time)

// Resource serializes use of one hardware unit. The zero value is an idle
// resource.
type Resource struct {
	busyUntil  Time
	busyCycles uint64
	uses       uint64
	obs        AcquireObserver
}

// Observe installs (or clears, with nil) the reservation observer. The
// observer survives Reset: accounting state is per-run, instrumentation
// is per-machine.
func (r *Resource) Observe(f AcquireObserver) { r.obs = f }

// Acquire reserves the resource for dur cycles starting no earlier than at,
// and no earlier than the end of any previous reservation. It returns the
// reservation's start and end times.
func (r *Resource) Acquire(at Time, dur uint64) (start, end Time) {
	start, end = r.Reserve(at, dur)
	if r.obs != nil {
		r.obs(start, end)
	}
	return start, end
}

// Reserve is Acquire without the observer: a caller that knows none is
// installed calls it where Acquire, whose observer call keeps it from
// inlining, would cost a call.
func (r *Resource) Reserve(at Time, dur uint64) (start, end Time) {
	start = max(at, r.busyUntil)
	end = start + dur
	r.busyUntil = end
	r.busyCycles += dur
	r.uses++
	return start, end
}

// BusyUntil returns the time at which the resource becomes free.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyCycles returns the cumulative cycles of reservation.
func (r *Resource) BusyCycles() uint64 { return r.busyCycles }

// Uses returns how many reservations have been made.
func (r *Resource) Uses() uint64 { return r.uses }

// Reset returns the resource to idle and clears its accounting. The
// installed observer, if any, is preserved.
func (r *Resource) Reset() { *r = Resource{obs: r.obs} }
