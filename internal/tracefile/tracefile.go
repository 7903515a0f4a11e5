// Package tracefile implements classic trace-driven simulation on top of
// the execution-driven machine: record the reference stream of a run
// once, then replay it under different memory-system configurations
// without re-executing the workload. This is the methodology most
// memory-system studies of the paper's era used (and the role Paint's
// instrumentation played); the experiment harness records and replays
// grid cells with it across processes (-trace-record / -trace-replay).
//
// Two formats share the 8-byte "IMPTRC" + version header:
//
// Version 1 (Writer/Read/Replay, kept for compatibility) is a flat
// load/store stream: 10-byte records {kind u8, size u8, vaddr u64 LE},
// conventional accesses only. Replay lazily maps touched pages and
// charges a fixed per-access instruction cost — an approximation good
// enough for cache-geometry studies, but it cannot reproduce a run's
// cycle counts, and shadow accesses are skipped entirely.
//
// Version 2 (RecordRun/ReplayV2) captures the full machine-command stream a
// run issues, so replay is cycle- and counter-identical to execution —
// including Impulse shadow runs. Beyond loads and stores it records Tick
// batches, Flush/Purge ranges, TLB and block-TLB operations, the OS
// remap setup (page-table installs with the concrete frames the
// allocator picked, controller backing-table downloads, shadow
// descriptor configuration), syscall accounting, and measurement-section
// boundaries. Descriptor records for Gather remappings carry an untimed
// memory-image section: the indirection vector's bytes, snapshotted at
// download time. That image is what makes shadow replay exact — gather
// timing depends on the vector's *values* (they select the DRAM lines a
// gather touches), and replay skips functional data movement
// (sim.Machine.SetFunctional), so the controller would otherwise
// dereference zeros. Replay restores the image through the backing page
// table before installing the descriptor.
//
// v2 records are opcode-tagged varint sequences (load/store addresses
// delta-encoded against the previous access), decoded by a bounds-checked
// streaming decoder (Validate; fuzzed by FuzzTraceDecode).
package tracefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"impulse/internal/addr"
	"impulse/internal/core"
	"impulse/internal/sim"
)

var magic = [8]byte{'I', 'M', 'P', 'T', 'R', 'C', 0, 1}

// Record is one replayable memory access.
type Record struct {
	Kind  byte // 0 = load, 1 = store
	Size  byte // access size in bytes (4 or 8)
	VAddr uint64
}

const (
	// KindLoad marks a load record.
	KindLoad byte = 0
	// KindStore marks a store record.
	KindStore byte = 1
)

// Writer streams records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
	err   error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Add appends one record.
func (t *Writer) Add(r Record) {
	if t.err != nil {
		return
	}
	var buf [10]byte
	buf[0] = r.Kind
	buf[1] = r.Size
	binary.LittleEndian.PutUint64(buf[2:], r.VAddr)
	if _, err := t.w.Write(buf[:]); err != nil {
		t.err = err
		return
	}
	t.count++
}

// Attach returns a sim.Tracer that records every load and store the
// machine executes (flushes and shadow accesses are skipped — see the
// package comment).
func (t *Writer) Attach() sim.Tracer {
	return func(e sim.TraceEvent) {
		if e.Shadow {
			return
		}
		switch e.Kind {
		case sim.TraceLoad:
			t.Add(Record{Kind: KindLoad, Size: byte(e.Size), VAddr: uint64(e.VAddr)})
		case sim.TraceStore:
			t.Add(Record{Kind: KindStore, Size: byte(e.Size), VAddr: uint64(e.VAddr)})
		}
	}
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush completes the stream.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Read parses a trace stream into records.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", hdr[:6])
	}
	var out []Record
	var buf [10]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tracefile: truncated record %d: %w", len(out), err)
		}
		rec := Record{Kind: buf[0], Size: buf[1], VAddr: binary.LittleEndian.Uint64(buf[2:])}
		if rec.Kind > KindStore {
			return nil, fmt.Errorf("tracefile: record %d: unknown kind %d", len(out), rec.Kind)
		}
		if rec.Size != 4 && rec.Size != 8 {
			return nil, fmt.Errorf("tracefile: record %d: unsupported size %d", len(out), rec.Size)
		}
		out = append(out, rec)
	}
}

// Replay drives the records through a system, lazily mapping every
// touched page, and returns the timed Row. perAccessTicks charges fixed
// non-memory work per access (the instruction overhead the trace lost).
func Replay(s *core.System, records []Record, perAccessTicks uint64) (core.Row, error) {
	mapped := make(map[uint64]bool)
	ensure := func(va addr.VAddr, size uint64) error {
		for pg := va.PageNum(); pg <= (uint64(va)+size-1)>>addr.PageShift; pg++ {
			if mapped[pg] {
				continue
			}
			f, err := s.K.AllocFrame()
			if err != nil {
				return err
			}
			if err := s.K.MapPage(pg, f); err != nil {
				return err
			}
			mapped[pg] = true
		}
		return nil
	}
	// Pre-map outside the timed section (the original run's allocation
	// was untimed setup too).
	for _, r := range records {
		if err := ensure(addr.VAddr(r.VAddr), uint64(r.Size)); err != nil {
			return core.Row{}, err
		}
	}
	sec := s.BeginSection()
	for _, r := range records {
		va := addr.VAddr(r.VAddr)
		switch {
		case r.Kind == KindLoad && r.Size == 8:
			s.Load64(va)
		case r.Kind == KindLoad:
			s.Load32(va)
		case r.Kind == KindStore && r.Size == 8:
			s.Store64(va, 0)
		default:
			s.Store32(va, 0)
		}
		if perAccessTicks > 0 {
			s.Tick(perAccessTicks)
		}
	}
	return sec.End("trace replay")
}
