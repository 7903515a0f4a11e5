package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"impulse"
	"impulse/internal/colres"
	"impulse/internal/stats"
	"impulse/internal/store"
	"impulse/internal/twin"
)

// simProbe drives one simulated event type from outside through
// impulse.NewSystem and typed loads: a set-up pass brings the caches,
// TLB and DRAM rows into the state the probe needs, then a timed pass
// repeats loads whose dominant event is the probed one. The system's
// own counters say how often the event occurred.
type simProbe struct {
	name  string
	opts  impulse.Options
	event func(d stats.MemStats) uint64
	// perLoad is how many events each load is designed to cause; fewer
	// than 90% of that means the probe no longer isolates its event.
	perLoad float64
	// build allocates the probe's data and returns the addresses one
	// pass loads, in order.
	build func(s *impulse.System) ([]impulse.VAddr, error)
}

const (
	l1Line   = 32
	l2Line   = 128
	pageSize = 4096
)

// dramRowSpan is the address range over which each of the 16 banks
// opens one 4 KB row: lines interleave across banks.
const dramRowSpan = 16 * pageSize

func memLoads(d stats.MemStats) uint64 { return d.MemLoads }

var simProbes = []simProbe{
	{"sim.ns.l1_hit", impulse.Options{}, func(d stats.MemStats) uint64 { return d.L1LoadHits }, 1,
		func(s *impulse.System) ([]impulse.VAddr, error) {
			return stride(s, 4096, 8, 4096)
		}},
	{"sim.ns.l2_hit", impulse.Options{}, func(d stats.MemStats) uint64 { return d.L2LoadHits }, 1,
		// 64 KB: twice the direct-mapped L1, a quarter of the L2.
		func(s *impulse.System) ([]impulse.VAddr, error) {
			return stride(s, 64<<10, l1Line, 64<<10)
		}},
	{"sim.ns.tlb_miss", impulse.Options{}, func(d stats.MemStats) uint64 { return d.TLBMisses }, 1,
		// One load per page over 1024 pages, eight times the TLB.
		func(s *impulse.System) ([]impulse.VAddr, error) {
			return stride(s, 1024*pageSize, pageSize+l2Line, 1024*pageSize)
		}},
	{"sim.ns.gather_line", impulse.Options{Controller: impulse.Impulse},
		func(d stats.MemStats) uint64 { return d.ShadowReads }, 1.0 / 16,
		// A scatter/gather alias over a 512 KB target, walked densely:
		// each 128-byte L2 line of the alias (16 elements) is gathered by
		// the controller.
		func(s *impulse.System) ([]impulse.VAddr, error) {
			const elems = 64 << 10
			target, err := s.Alloc(elems*8, pageSize)
			if err != nil {
				return nil, err
			}
			vec, err := s.Alloc(elems*4, pageSize)
			if err != nil {
				return nil, err
			}
			idx := make([]uint32, elems)
			for i := range idx {
				idx[i] = uint32((i * 7919) % elems)
			}
			s.StoreStreamU32(vec, idx)
			alias, err := s.MapScatterGather(target, elems*8, 8, vec, elems, 0)
			if err != nil {
				return nil, err
			}
			var as []impulse.VAddr
			for i := 0; i < elems; i++ {
				as = append(as, alias+impulse.VAddr(8*i))
			}
			return as, nil
		}},
	// The two memory probes miss both caches on every load and differ in
	// how often the load finds its bank's row open; their DRAM counters
	// split host time between row misses and row hits (probeSim).
	{"dram.alternating", impulse.Options{}, memLoads, 1,
		// 512 KB (twice the L2, within TLB reach) visited so that each
		// bank alternates between rows.
		func(s *impulse.System) ([]impulse.VAddr, error) {
			base, err := s.Alloc(512<<10, pageSize)
			if err != nil {
				return nil, err
			}
			var as []impulse.VAddr
			for slot := 0; slot < dramRowSpan/l2Line; slot++ {
				for row := 0; row < (512<<10)/dramRowSpan; row++ {
					as = append(as, base+impulse.VAddr(row*dramRowSpan+slot*l2Line))
				}
			}
			return as, nil
		}},
	{"dram.sequential", impulse.Options{}, memLoads, 1,
		// Sequential L2 lines over 4 MB: the second line each bank sees
		// in a page finds its row open.
		func(s *impulse.System) ([]impulse.VAddr, error) {
			return stride(s, 4<<20, l2Line, 4<<20)
		}},
}

// stride allocates size bytes and returns one address every step bytes
// over the first span bytes; a step beyond a page also moves one L2
// line within the page, so consecutive loads land on distinct sets.
func stride(s *impulse.System, size, step, span uint64) ([]impulse.VAddr, error) {
	base, err := s.Alloc(size, pageSize)
	if err != nil {
		return nil, err
	}
	var as []impulse.VAddr
	for off := uint64(0); off < span; off += step {
		a := off
		if step > pageSize {
			page := off / pageSize
			a = page*pageSize + (page*l2Line)%pageSize
		}
		as = append(as, base+impulse.VAddr(a))
	}
	return as, nil
}

// probeMinLoads is how many loads a timed pass makes at least; the pass
// repeats until it does, so each figure averages over enough events to
// be steady.
const probeMinLoads = 200_000

// probeSim runs every simProbe and records sim.ns.*: host time of the
// timed pass over the number of events. The two DRAM probes instead
// solve hits*row_hit + misses*mem_miss = time for both. A probe whose
// counters show it no longer isolates its event fails the run; the
// counters are deterministic, so this never trips on noise.
func probeSim(r *report, tr *tracer) error {
	type mem struct{ hits, misses, ns float64 }
	var dram []mem
	for _, p := range simProbes {
		s, err := impulse.NewSystem(p.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		as, err := p.build(s)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		for _, a := range as {
			s.LoadF64(a)
		}
		before := s.Snapshot()
		var loads uint64
		start := time.Now()
		for loads < probeMinLoads {
			for _, a := range as {
				s.LoadF64(a)
			}
			loads += uint64(len(as))
		}
		end := time.Now()
		after := s.Snapshot()
		d := stats.Delta(&before, &after)
		events := float64(p.event(d))
		ns := float64(end.Sub(start).Nanoseconds())
		tr.add(span{name: p.name, track: "probe.sim", start: start, end: end})
		r.attempted++
		if events < 0.9*p.perLoad*float64(loads) {
			r.fail("%s: %.0f events over %d loads; the probe no longer isolates its event", p.name, events, loads)
			continue
		}
		if strings.HasPrefix(p.name, "dram.") {
			dram = append(dram, mem{float64(d.DRAMRowHits), float64(d.DRAMRowMisses), ns})
			continue
		}
		r.set(p.name, ns/events)
	}
	if len(dram) != 2 {
		return nil
	}
	a, b := dram[0], dram[1]
	r.attempted++
	det := a.hits*b.misses - b.hits*a.misses
	if det > -0.1*a.misses*b.misses && det < 0.1*a.misses*b.misses {
		r.fail("sim.ns.row_hit: the DRAM probes' row-hit shares are too close to separate hits from misses")
		return nil
	}
	r.set("sim.ns.row_hit", (a.ns*b.misses-b.ns*a.misses)/det)
	r.set("sim.ns.mem_miss", (a.hits*b.ns-b.hits*a.ns)/det)
	return nil
}

// probeColres times the columnar codec and the JSON view on the
// workload's own result blobs: p50 µs per call over reps calls each.
func probeColres(r *report, tr *tracer, blobs [][]byte, reps int) error {
	var enc, dec, js []float64
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		for _, b := range blobs {
			t0 := time.Now()
			doc, err := colres.Decode(b)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("colres decode: %w", err)
			}
			again := colres.Encode(doc)
			t2 := time.Now()
			buf.Reset()
			if err := colres.WriteGridJSON(doc, &buf); err != nil {
				return fmt.Errorf("colres json: %w", err)
			}
			t3 := time.Now()
			r.attempted++
			if !bytes.Equal(again, b) {
				r.fail("colres: re-encoding a decoded blob changed its bytes")
			}
			dec = append(dec, us(t1.Sub(t0)))
			enc = append(enc, us(t2.Sub(t1)))
			js = append(js, us(t3.Sub(t2)))
			if i == 0 {
				tr.add(span{name: "colres.decode", track: "probe.colres", start: t0, end: t1})
				tr.add(span{name: "colres.encode", track: "probe.colres", start: t1, end: t2})
				tr.add(span{name: "colres.json", track: "probe.colres", start: t2, end: t3})
			}
		}
	}
	r.set("colres.decode_us", median(dec))
	r.set("colres.encode_us", median(enc))
	r.set("colres.json_us", median(js))
	return nil
}

// probeStore puts every blob copies times into a scratch store under
// distinct hashes, reopens the store, and gets each back from disk
// (first touch verifies the digest and maps the file): p50 µs of Put
// and of Get.
func probeStore(r *report, tr *tracer, dir string, blobs [][]byte, copies int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	var hashes []string
	for c := 0; c < copies; c++ {
		for i, b := range blobs {
			h := fmt.Sprintf("probe%04d%04d", c, i)
			t0 := time.Now()
			_, err := st.Put(b, store.Meta{Hash: h, Kind: "probe", MIME: "application/octet-stream", ColumnarBlob: true, OutputIsBlob: true})
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("store put: %w", err)
			}
			tr.add(span{name: "store.put", track: "probe.store", id: h, start: t0, end: t1})
			puts = append(puts, us(t1.Sub(t0)))
			hashes = append(hashes, h)
		}
	}
	st.Close()
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	for i, h := range hashes {
		t0 := time.Now()
		blob, _, ok := st.Get(h)
		t1 := time.Now()
		tr.add(span{name: "store.get", track: "probe.store", id: h, start: t0, end: t1})
		r.attempted++
		if !ok || !bytes.Equal(blob.Data, blobs[i%len(blobs)]) {
			r.fail("store: %s did not read back byte-identical", h)
			continue
		}
		gets = append(gets, us(t1.Sub(t0)))
	}
	r.set("store.put_us", median(puts))
	r.set("store.get_us", median(gets))
	return nil
}

// twinFamilies are the analytical-twin families the serve-fleet mix
// predicts.
var twinFamilies = []string{"sram", "stride", "superpage"}

// probeTwin times twin.Predict per family (fast geometry, as the mix
// asks): the median over families of each family's p50 µs.
func probeTwin(r *report, tr *tracer, reps int) error {
	var perFamily []float64
	for _, fam := range twinFamilies {
		var ts []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			_, err := twin.Predict(fam, true)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("twin %s: %w", fam, err)
			}
			if i == 0 {
				tr.add(span{name: "twin.predict", track: "probe.twin", id: fam, start: t0, end: t1})
			}
			ts = append(ts, us(t1.Sub(t0)))
		}
		perFamily = append(perFamily, median(ts))
	}
	r.set("twin.predict_us", median(perFamily))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
