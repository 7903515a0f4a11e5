package mc

import (
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/obs"
	"impulse/internal/timeline"
)

// ReadLine services a bus read of one cache line (cfg.LineBytes) starting
// at line-aligned bus address p, arriving at the controller at time at.
// It returns the time the line's data is assembled and ready to be driven
// onto the bus. The caller (the machine) adds bus transfer time.
func (c *Controller) ReadLine(at timeline.Time, p addr.PAddr) (timeline.Time, error) {
	if uint64(p)&c.lineMask != 0 {
		return 0, fmt.Errorf("mc: unaligned line read at %v", p)
	}
	t0 := at + c.cfg.PipelineCycles
	if !c.IsShadow(p) {
		return c.readNormal(t0, p), nil
	}
	return c.readShadow(t0, p)
}

// readNormal is the non-remapped path: check the 2 KB SRAM prefetch cache,
// else access DRAM; with prefetching on, run the one-block-lookahead
// prefetcher (§2.2: "a 2K buffer for prefetching non-remapped data using a
// simple one-block lookahead prefetcher").
func (c *Controller) readNormal(t0 timeline.Time, p addr.PAddr) timeline.Time {
	la := uint64(p) >> c.lineShift
	ready := timeline.Time(0)
	if e := c.sramFind(la); e != nil {
		c.st.MCPrefetchHits++
		ready = maxTime(t0, e.readyAt)
		if c.h != nil {
			c.h.Span(c.track, "sram-hit", t0, ready)
		}
	} else {
		ready = c.dram.Read(t0, p)
		if c.h != nil {
			c.h.Span(c.track, "fill", t0, ready)
		}
	}
	if c.cfg.Prefetch {
		next := la + 1
		nextP := addr.PAddr(next << c.lineShift)
		if c.cfg.Layout.IsDRAM(nextP) && c.sramFind(next) == nil {
			// Prefetch issues behind the demand access (CPU priority).
			done := c.dram.Read(ready, nextP)
			c.sramInsert(bufEntry{lineAddr: next, readyAt: done, valid: true})
			c.st.MCPrefetches++
			if c.h != nil {
				c.h.Span(c.track, "prefetch", ready, done)
			}
		}
	}
	return ready
}

func (c *Controller) sramFind(lineAddr uint64) *bufEntry {
	for i := range c.sram {
		if c.sram[i].valid && c.sram[i].lineAddr == lineAddr {
			return &c.sram[i]
		}
	}
	return nil
}

func (c *Controller) sramInsert(e bufEntry) {
	c.sram[c.sramNext] = e
	c.sramNext = (c.sramNext + 1) % len(c.sram)
}

func (c *Controller) sramInvalidate(lineAddr uint64) {
	for i := range c.sram {
		if c.sram[i].valid && c.sram[i].lineAddr == lineAddr {
			c.sram[i].valid = false
		}
	}
}

// readShadow is the remapped path (Figure 3 flow b..g).
func (c *Controller) readShadow(t0 timeline.Time, p addr.PAddr) (timeline.Time, error) {
	ds := c.findDesc(p)
	if ds == nil {
		return 0, fmt.Errorf("mc: no descriptor covers shadow address %v", p)
	}
	c.st.ShadowReads++
	la := uint64(p) >> c.lineShift
	var ready timeline.Time
	if e := descBufFind(ds, la); e != nil {
		c.st.SDescPrefHits++
		ds.bufHits++
		ready = maxTime(t0, e.readyAt)
		if c.h != nil {
			c.h.Span(c.track, "sdesc-hit", t0, ready)
			c.h.Event(obs.SDescHit, t0)
		}
	} else {
		var err error
		ready, err = c.gather(t0, ds, p)
		if err != nil {
			return 0, err
		}
		ds.gathers++
		if c.h != nil {
			c.h.Span(c.track, "gather", t0, ready)
			c.h.Event(obs.SDescMiss, t0)
		}
	}
	if c.cfg.Prefetch {
		if err := c.descPrefetchNext(ds, la, ready); err != nil {
			return 0, err
		}
	}
	return ready, nil
}

// descPrefetchNext prefetches the next sequential shadow line into the
// descriptor's 256-byte buffer, issuing behind the demand access. Shadow
// regions are accessed sequentially by construction (the whole point of
// packing sparse data densely), so next-line lookahead is the right
// policy, and it is what hides the multi-access cost of a gather.
func (c *Controller) descPrefetchNext(ds *descState, la uint64, issue timeline.Time) error {
	next := la + 1
	nextP := addr.PAddr(next << c.lineShift)
	if !ds.d.Contains(nextP) || uint64(nextP)-uint64(ds.d.ShadowBase)+c.cfg.LineBytes > ds.d.Bytes {
		return nil
	}
	if descBufFind(ds, next) != nil {
		return nil
	}
	done, err := c.gather(issue, ds, nextP)
	if err != nil {
		// A prefetch that would fault (e.g. into an unmapped hole of a
		// recolored region) is simply dropped, as hardware would.
		return nil
	}
	ds.buf[ds.bufNext] = bufEntry{lineAddr: next, readyAt: done, valid: true}
	ds.bufNext = (ds.bufNext + 1) % len(ds.buf)
	c.st.SDescPrefetches++
	ds.prefetches++
	if c.h != nil {
		c.h.Span(c.track, "sdesc-prefetch", issue, done)
	}
	return nil
}

func descBufFind(ds *descState, lineAddr uint64) *bufEntry {
	for i := range ds.buf {
		if ds.buf[i].valid && ds.buf[i].lineAddr == lineAddr {
			return &ds.buf[i]
		}
	}
	return nil
}

// lineReq is one distinct element DRAM line a gather must read, with the
// time its translation is available.
type lineReq struct {
	line  addr.PAddr
	ready timeline.Time
}

// gather computes the timing of building one shadow cache line:
// AddrCalc per element, indirection-vector fetches (Gather), PgTbl
// translations (on-chip TLB, misses fetch a PTE from DRAM), then the
// element reads issued to the DRAM scheduler; finally line assembly.
// Runs once per shadow line — the scratch buffers keep it allocation-free.
func (c *Controller) gather(t0 timeline.Time, ds *descState, p addr.PAddr) (timeline.Time, error) {
	off := uint64(p) - uint64(ds.d.ShadowBase)
	n := c.cfg.LineBytes
	if off+n > ds.d.Bytes {
		n = ds.d.Bytes - off
	}
	pieces, err := ds.d.appendPieces(c.piecesBuf[:0], off, n, ds.vecFn)
	c.piecesBuf = pieces[:0]
	if err != nil {
		return 0, err
	}
	start := t0 + uint64(len(pieces))*c.cfg.AddrCalcCycles

	// Indirection-vector fetch: the controller reads vector entries from
	// DRAM. Entries for one shadow line are contiguous, so they occupy
	// one or two DRAM lines, which the descriptor caches across
	// consecutive gathers.
	if ds.d.Kind == Gather {
		start = c.fetchVector(start, ds, pieces)
	}

	// Translate each piece's pseudo-virtual page; collect distinct element
	// DRAM lines with the time their translation is available.
	reqs := c.reqsBuf[:0]
	addLine := func(line addr.PAddr, ready timeline.Time) {
		for i := range reqs {
			if reqs[i].line == line {
				if ready < reqs[i].ready {
					reqs[i].ready = ready
				}
				return
			}
		}
		reqs = append(reqs, lineReq{line, ready})
	}
	for _, pc := range pieces {
		pv, remain := pc.pv, pc.bytes
		for remain > 0 {
			tready, frame, err := c.translatePV(start, pv.PageNum())
			if err != nil {
				c.reqsBuf = reqs[:0]
				return 0, err
			}
			take := uint64(addr.PageSize) - pv.PageOff()
			if take > remain {
				take = remain
			}
			phys := frame<<addr.PageShift | pv.PageOff()
			first := phys >> c.lineShift
			last := (phys + take - 1) >> c.lineShift
			for l := first; l <= last; l++ {
				addLine(addr.PAddr(l<<c.lineShift), tready)
			}
			pv += addr.PVAddr(take)
			remain -= take
		}
	}
	c.reqsBuf = reqs[:0]

	// Issue the element reads. In-order issue follows request order; the
	// row-major ablation reorders for page locality.
	lines := c.linesBuf[:0]
	issueAt := start
	for _, r := range reqs {
		lines = append(lines, r.line)
		if r.ready > issueAt {
			issueAt = r.ready
		}
	}
	c.linesBuf = lines[:0]
	done := c.dram.ReadBatch(issueAt, lines, c.cfg.Order)
	c.st.ShadowDRAMReads += uint64(len(lines))
	return done + c.cfg.AssembleCycles, nil
}

// fetchVector charges the timing of reading the indirection-vector entries
// that the given pieces consult, with a 2-line cache per descriptor.
func (c *Controller) fetchVector(start timeline.Time, ds *descState, pieces []piece) timeline.Time {
	ready := start
	for _, pc := range pieces {
		if pc.vecIndex < 0 {
			continue
		}
		pv := ds.d.VecPV + addr.PVAddr(4*uint64(pc.vecIndex))
		tready, frame, err := c.translatePV(start, pv.PageNum())
		if err != nil {
			// Functional reader will have panicked already on truly
			// unmapped vectors; treat as no additional delay.
			continue
		}
		phys := frame<<addr.PageShift | pv.PageOff()
		line := phys >> c.lineShift
		if ds.vecLines[0] == line || ds.vecLines[1] == line {
			continue
		}
		done := c.dram.Read(maxTime(start, tready), addr.PAddr(line<<c.lineShift))
		c.st.ShadowDRAMReads++
		ds.vecLines[ds.vecNext] = line
		ds.vecNext = (ds.vecNext + 1) % len(ds.vecLines)
		if done > ready {
			ready = done
		}
	}
	return ready
}

// translatePV translates a pseudo-virtual page through the controller
// PgTbl: TLB hit is free (single-cycle, hidden in the pipeline); a miss
// fetches the PTE from the backing table in DRAM.
func (c *Controller) translatePV(at timeline.Time, pvpage uint64) (timeline.Time, uint64, error) {
	if frame, ok := c.pgtlb.Lookup(pvpage); ok {
		return at, frame, nil
	}
	frame, ok := c.backing.Get(pvpage)
	if !ok {
		return 0, 0, fmt.Errorf("mc: pseudo-virtual page %#x unmapped", pvpage)
	}
	c.st.MCTLBMisses++
	pte := uint64(c.cfg.PgTblBase) + (pvpage*8)%c.cfg.PgTblBytes
	done := c.dram.Read(at, addr.PAddr(pte))
	c.pgtlb.Insert(pvpage, frame)
	return done, frame, nil
}

// WriteLine services a line write (an L2 write-back) at line-aligned bus
// address p. For shadow lines the controller scatters the data back
// through the remapping (the reverse of a gather); the returned time is
// when the last DRAM write has been issued — writes are posted, so the
// caller typically discards it.
func (c *Controller) WriteLine(at timeline.Time, p addr.PAddr) (timeline.Time, error) {
	t0 := at + c.cfg.PipelineCycles
	if !c.IsShadow(p) {
		c.sramInvalidate(uint64(p) >> c.lineShift)
		return c.dram.Write(t0, p), nil
	}
	ds := c.findDesc(p)
	if ds == nil {
		return 0, fmt.Errorf("mc: no descriptor covers shadow address %v", p)
	}
	// A store to a prefetched shadow line would make the buffered copy
	// stale: drop it.
	la := uint64(p) >> c.lineShift
	if e := descBufFind(ds, la); e != nil {
		e.valid = false
	}
	runs, err := c.ResolveInto(c.runsBuf[:0], p, c.lineSpan(ds, p))
	c.runsBuf = runs[:0]
	if err != nil {
		return 0, err
	}
	done := t0
	// A line holds few distinct element lines; a linear scan over a
	// reused slice beats a per-call map.
	seen := c.seenBuf[:0]
	for _, r := range runs {
		first := uint64(r.P) >> c.lineShift
		last := (uint64(r.P) + r.Bytes - 1) >> c.lineShift
	scan:
		for l := first; l <= last; l++ {
			lp := addr.PAddr(l << c.lineShift)
			for _, s := range seen {
				if s == lp {
					continue scan
				}
			}
			seen = append(seen, lp)
			if t := c.dram.Write(t0, lp); t > done {
				done = t
			}
		}
	}
	c.seenBuf = seen[:0]
	if c.h != nil {
		c.h.Span(c.track, "scatter", t0, done)
	}
	return done, nil
}

// lineSpan clamps a full line at p to the descriptor's region size.
func (c *Controller) lineSpan(ds *descState, p addr.PAddr) uint64 {
	off := uint64(p) - uint64(ds.d.ShadowBase)
	n := c.cfg.LineBytes
	if off+n > ds.d.Bytes {
		n = ds.d.Bytes - off
	}
	return n
}

func maxTime(a, b timeline.Time) timeline.Time {
	if a > b {
		return a
	}
	return b
}
