package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"impulse/internal/addr"
	"impulse/internal/core"
	"impulse/internal/mc"
)

// magicV2 heads a version-2 trace (same "IMPTRC" prefix as v1).
var magicV2 = [8]byte{'I', 'M', 'P', 'T', 'R', 'C', 0, 2}

// v2 opcodes. Load/store addresses are zigzag-varint deltas against the
// previous access address; all other integers are plain uvarints.
const (
	opLoad32 byte = iota + 1
	opLoad64
	opStore32
	opStore64
	opTick             // n
	opFlushV           // v, bytes
	opPurgeV           // v, bytes
	opInstallBlockTLB  // v, p, bytes
	opClearBlockTLB    //
	opFlushTLB         //
	opFlushTLBPage     // v
	opResetCaches      //
	opFlushAllCaches   //
	opMapPT            // vpage, pn
	opUnmapPT          // vpage
	opMapPV            // pvpage, frame
	opSetDescriptor    // slot, kind, shadowBase, bytes, pvBase, objBytes, strideBytes, vecPV, imgLen, img
	opClearDescriptor  // slot
	opMCInvalidateTLB  //
	opMCInvalidateBufs //
	opSyscallStats     // calls, cycles
	opSectionBegin     //
	opSectionEnd       // labelLen, label
	opResult           // labelLen, label
)

// Recorder captures a run's full machine-command stream into an
// in-memory v2 trace. Build one with RecordRun, run the workload, then
// take the encoded trace with Bytes. A Recorder is single-use and, like
// the System it observes, not safe for concurrent use.
type Recorder struct {
	s    *core.System
	buf  []byte
	last uint64 // previous load/store address, for delta encoding
	err  error
}

// RecordRun attaches a new Recorder to every recording hook of s
// (machine command stream, kernel page-table observer, controller OS
// ops, run events) and returns it.
func RecordRun(s *core.System) *Recorder {
	// Pre-size the buffer: workload traces run to megabytes, and growing
	// from empty costs a dozen copy-everything reallocations.
	r := &Recorder{s: s, buf: append(make([]byte, 0, 1<<20), magicV2[:]...)}
	s.SetCommandRecorder(r)
	s.SetRunRecorder(r)
	s.K.SetMapObserver(r)
	s.MC.SetOpRecorder(r)
	return r
}

// Detach removes the recorder from the system's hooks.
func (r *Recorder) Detach() {
	r.s.SetCommandRecorder(nil)
	r.s.SetRunRecorder(nil)
	r.s.K.SetMapObserver(nil)
	r.s.MC.SetOpRecorder(nil)
}

// Bytes returns the encoded trace, or the first recording error (an
// operation v2 cannot represent, or a failed indirection-vector
// snapshot).
func (r *Recorder) Bytes() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	return r.buf, nil
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Recorder) op(c byte)  { r.buf = append(r.buf, c) }
func (r *Recorder) u(v uint64) { r.buf = binary.AppendUvarint(r.buf, v) }
func (r *Recorder) str(s string) {
	r.u(uint64(len(s)))
	r.buf = append(r.buf, s...)
}

// opDelta appends opcode + zigzag delta in one append on the common
// small-delta path (loads and stores are the bulk of a trace; fusing the
// two appends and inlining the one-byte varint is measurable).
func (r *Recorder) opDelta(c byte, a uint64) {
	d := int64(a - r.last)
	r.last = a
	u := uint64(d<<1) ^ uint64(d>>63) // zigzag, as binary.AppendVarint
	if u < 0x80 {
		r.buf = append(r.buf, c, byte(u))
		return
	}
	r.buf = append(r.buf, c)
	r.buf = binary.AppendUvarint(r.buf, u)
}

// --- sim.CmdRecorder ----------------------------------------------------

func (r *Recorder) RecLoad(v addr.VAddr, size uint64) {
	if size == 8 {
		r.opDelta(opLoad64, uint64(v))
	} else {
		r.opDelta(opLoad32, uint64(v))
	}
}

func (r *Recorder) RecStore(v addr.VAddr, size uint64) {
	if size == 8 {
		r.opDelta(opStore64, uint64(v))
	} else {
		r.opDelta(opStore32, uint64(v))
	}
}

func (r *Recorder) RecTick(n uint64) {
	if n < 0x80 {
		r.buf = append(r.buf, opTick, byte(n))
		return
	}
	r.op(opTick)
	r.u(n)
}

func (r *Recorder) RecFlushVRange(v addr.VAddr, bytes uint64) {
	r.op(opFlushV)
	r.u(uint64(v))
	r.u(bytes)
}

func (r *Recorder) RecPurgeVRange(v addr.VAddr, bytes uint64) {
	r.op(opPurgeV)
	r.u(uint64(v))
	r.u(bytes)
}

func (r *Recorder) RecInstallBlockTLB(v addr.VAddr, p addr.PAddr, bytes uint64) {
	r.op(opInstallBlockTLB)
	r.u(uint64(v))
	r.u(uint64(p))
	r.u(bytes)
}

func (r *Recorder) RecClearBlockTLB() { r.op(opClearBlockTLB) }
func (r *Recorder) RecFlushTLB()      { r.op(opFlushTLB) }
func (r *Recorder) RecFlushTLBPage(v addr.VAddr) {
	r.op(opFlushTLBPage)
	r.u(uint64(v))
}
func (r *Recorder) RecResetCachesUntimed() { r.op(opResetCaches) }
func (r *Recorder) RecFlushAllCaches()     { r.op(opFlushAllCaches) }

// --- kernel.MapObserver -------------------------------------------------

func (r *Recorder) OnMap(vpage, pn uint64) {
	r.op(opMapPT)
	r.u(vpage)
	r.u(pn)
}

func (r *Recorder) OnUnmap(vpage uint64) {
	r.op(opUnmapPT)
	r.u(vpage)
}

func (r *Recorder) OnSwitch(pid int) {
	// A v2 trace carries one process's reference stream; multi-process
	// runs (the LRPC experiment) are not replayable.
	r.fail(fmt.Errorf("tracefile: process switch (pid %d) is not replayable", pid))
}

// --- mc.OpRecorder ------------------------------------------------------

func (r *Recorder) RecMapPV(pvpage, frame uint64) {
	r.op(opMapPV)
	r.u(pvpage)
	r.u(frame)
}

func (r *Recorder) RecSetDescriptor(slot int, d mc.Descriptor) {
	if r.err != nil {
		return
	}
	var img []byte
	if d.Kind == mc.Gather && d.ObjBytes > 0 {
		// Snapshot the indirection vector: one uint32 entry per object.
		// Gather timing depends on these values, and replay skips the
		// functional stores that wrote them.
		n := (d.Bytes + d.ObjBytes - 1) / d.ObjBytes * 4
		b, err := r.s.MC.ReadPVImage(d.VecPV, n)
		if err != nil {
			r.fail(fmt.Errorf("tracefile: snapshot indirection vector: %w", err))
			return
		}
		img = b
	}
	r.op(opSetDescriptor)
	r.u(uint64(slot))
	r.u(uint64(d.Kind))
	r.u(uint64(d.ShadowBase))
	r.u(d.Bytes)
	r.u(uint64(d.PVBase))
	r.u(d.ObjBytes)
	r.u(d.StrideBytes)
	r.u(uint64(d.VecPV))
	r.u(uint64(len(img)))
	r.buf = append(r.buf, img...)
}

func (r *Recorder) RecClearDescriptor(slot int) {
	r.op(opClearDescriptor)
	r.u(uint64(slot))
}

func (r *Recorder) RecMCInvalidateTLB()     { r.op(opMCInvalidateTLB) }
func (r *Recorder) RecMCInvalidateBuffers() { r.op(opMCInvalidateBufs) }

// --- core.RunRecorder ---------------------------------------------------

func (r *Recorder) RecSyscallStats(calls, cycles uint64) {
	r.op(opSyscallStats)
	r.u(calls)
	r.u(cycles)
}

func (r *Recorder) RecSectionBegin() { r.op(opSectionBegin) }

func (r *Recorder) RecSectionEnd(label string) {
	r.op(opSectionEnd)
	r.str(label)
}

func (r *Recorder) RecResult(label string) {
	r.op(opResult)
	r.str(label)
}

// --- Decoding -----------------------------------------------------------

// v2op is one decoded trace operation. Only the fields the opcode uses
// are set; a/b/c are positional integer operands.
type v2op struct {
	code    byte
	a, b, c uint64
	label   string
	desc    mc.Descriptor
	img     []byte
}

type v2decoder struct {
	data []byte
	pos  int
	last uint64
}

func (d *v2decoder) errAt(format string, args ...any) error {
	return fmt.Errorf("tracefile: "+format+" at byte %d", append(args, d.pos)...)
}

func (d *v2decoder) u() (uint64, error) {
	v, n := Uvarint(d.data, d.pos)
	if n <= 0 {
		return 0, d.errAt("truncated or oversized varint")
	}
	d.pos += n
	return v, nil
}

func (d *v2decoder) addr() (uint64, error) {
	u, err := d.u()
	if err != nil {
		return 0, err
	}
	// Zigzag decode (mirrors binary.Varint's wire form).
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	d.last += uint64(v)
	return d.last, nil
}

func (d *v2decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.data)-d.pos) {
		return nil, d.errAt("truncated payload (%d bytes wanted, %d left)", n, len(d.data)-d.pos)
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// forEachOp streams the ops of a v2 trace through fn, validating the
// header, every opcode, operand bounds, and section balance. The op is
// passed by pointer and reused between calls (replay visits millions of
// ops; copying the struct per op is measurable); byte slices and the op
// itself must not be retained past the callback. Slices alias data.
func forEachOp(data []byte, fn func(o *v2op) error) error {
	if len(data) < len(magicV2) || !bytes.Equal(data[:len(magicV2)], magicV2[:]) {
		return fmt.Errorf("tracefile: not a v2 trace (bad or missing header)")
	}
	d := &v2decoder{data: data, pos: len(magicV2)}
	depth := 0
	// o is reused without clearing: every opcode's handler reads only the
	// fields that opcode decodes, so stale values in the others are never
	// observed, and skipping the ~130-byte clear is measurable at
	// millions of ops per replay.
	var o v2op
	for d.pos < len(d.data) {
		var err error
		o.code = d.data[d.pos]
		d.pos++
		switch o.code {
		case opLoad32, opLoad64, opStore32, opStore64:
			o.a, err = d.addr()
		case opTick:
			o.a, err = d.u()
		default:
			err = d.rareOp(&o, &depth)
		}
		if err != nil {
			return err
		}
		if err := fn(&o); err != nil {
			return err
		}
	}
	return nil
}

// rareOp decodes the operands of any op other than a load/store/tick
// (o.code is already consumed), keeping forEachOp's hot loop to the
// load/store/tick arms.
func (d *v2decoder) rareOp(o *v2op, depth *int) error {
	var err error
	switch o.code {
	case opFlushTLBPage, opUnmapPT, opClearDescriptor:
		o.a, err = d.u()
	case opFlushV, opPurgeV, opMapPT, opMapPV, opSyscallStats:
		if o.a, err = d.u(); err == nil {
			o.b, err = d.u()
		}
	case opInstallBlockTLB:
		if o.a, err = d.u(); err == nil {
			if o.b, err = d.u(); err == nil {
				o.c, err = d.u()
			}
		}
	case opClearBlockTLB, opFlushTLB, opResetCaches, opFlushAllCaches,
		opMCInvalidateTLB, opMCInvalidateBufs:
		// no operands
	case opSectionBegin:
		*depth++
	case opSectionEnd, opResult:
		var n uint64
		if n, err = d.u(); err == nil {
			var lb []byte
			if lb, err = d.bytes(n); err == nil {
				o.label = string(lb)
			}
		}
		if err == nil && o.code == opSectionEnd {
			if *depth == 0 {
				return d.errAt("section end without begin")
			}
			*depth--
		}
	case opSetDescriptor:
		err = d.descriptor(o)
	default:
		return fmt.Errorf("tracefile: unknown opcode %#02x at byte %d", o.code, d.pos-1)
	}
	return err
}

func (d *v2decoder) descriptor(o *v2op) error {
	var slot, kind, shadowBase, dbytes, pvBase, objBytes, strideBytes, vecPV uint64
	for _, p := range []*uint64{&slot, &kind, &shadowBase, &dbytes, &pvBase, &objBytes, &strideBytes, &vecPV} {
		v, err := d.u()
		if err != nil {
			return err
		}
		*p = v
	}
	if slot >= mc.NumDescriptors {
		return d.errAt("descriptor slot %d out of range", slot)
	}
	if kind > uint64(mc.Gather) {
		return d.errAt("unknown descriptor kind %d", kind)
	}
	imgLen, err := d.u()
	if err != nil {
		return err
	}
	img, err := d.bytes(imgLen)
	if err != nil {
		return err
	}
	o.a = slot
	o.desc = mc.Descriptor{
		Kind:        mc.RemapKind(kind),
		ShadowBase:  addr.PAddr(shadowBase),
		Bytes:       dbytes,
		PVBase:      addr.PVAddr(pvBase),
		ObjBytes:    objBytes,
		StrideBytes: strideBytes,
		VecPV:       addr.PVAddr(vecPV),
	}
	o.img = img
	return nil
}

// Validate checks that data is a structurally well-formed v2 trace
// without applying it to a machine. It is the decoder surface
// FuzzTraceDecode exercises.
func Validate(data []byte) error {
	return forEachOp(data, func(*v2op) error { return nil })
}

// ReplayOpts configures ReplayV2.
type ReplayOpts struct {
	// MapLabel, when non-nil, rewrites each recorded section/result
	// label before the row is produced. The harness uses it so a
	// replayed cell's rows carry the replaying configuration's label
	// (e.g. its own prefetch-policy suffix), keeping rendered tables and
	// registered counter names identical to execution.
	MapLabel func(string) string
}

// ReplayV2 re-issues a recorded v2 command stream against s, which must
// be freshly built with the timing configuration under study. Functional
// data movement is disabled for the duration (values do not affect
// timing; the indirection-vector images carried by the trace cover the
// one place they do). It returns the rows produced by the recorded
// sections/results, in order. Structural damage surfaces as a decode
// error; semantic damage that drives the machine into an impossible
// state (e.g. a load to a never-mapped page) is caught and returned as
// an error rather than panicking.
func ReplayV2(s *core.System, data []byte, opts ReplayOpts) (rows []core.Row, err error) {
	mapLabel := opts.MapLabel
	if mapLabel == nil {
		mapLabel = func(l string) string { return l }
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tracefile: replay: %v", r)
		}
	}()
	s.SetFunctional(false)
	defer s.SetFunctional(true)
	var secs []core.Section
	err = forEachOp(data, func(o *v2op) error {
		// The hot ops stay inline (they are the bulk of every trace).
		switch o.code {
		case opLoad32:
			s.Load32(addr.VAddr(o.a))
		case opLoad64:
			s.Load64(addr.VAddr(o.a))
		case opStore32:
			s.Store32(addr.VAddr(o.a), 0)
		case opStore64:
			s.Store64(addr.VAddr(o.a), 0)
		case opTick:
			s.Tick(o.a)
		default:
			return applyRare(s, o, &secs, &rows, mapLabel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// applyRare applies one non-access op to s.
func applyRare(s *core.System, o *v2op, secs *[]core.Section, rows *[]core.Row, mapLabel func(string) string) error {
	switch o.code {
	case opFlushV:
		s.FlushVRange(addr.VAddr(o.a), o.b)
	case opPurgeV:
		s.PurgeVRange(addr.VAddr(o.a), o.b)
	case opInstallBlockTLB:
		s.InstallBlockTLB(addr.VAddr(o.a), addr.PAddr(o.b), o.c)
	case opClearBlockTLB:
		s.ClearBlockTLB()
	case opFlushTLB:
		s.FlushTLB()
	case opFlushTLBPage:
		s.FlushTLBPage(addr.VAddr(o.a))
	case opResetCaches:
		s.ResetCachesUntimed()
	case opFlushAllCaches:
		s.FlushAllCaches()
	case opMapPT:
		s.K.InstallMapping(o.a, o.b)
	case opUnmapPT:
		s.K.Unmap(o.a)
	case opMapPV:
		s.MC.MapPV(o.a, o.b)
	case opSetDescriptor:
		if len(o.img) > 0 {
			if err := s.MC.WritePVImage(o.desc.VecPV, o.img); err != nil {
				return fmt.Errorf("tracefile: replay: restore indirection vector: %w", err)
			}
		}
		if err := s.MC.SetDescriptor(int(o.a), o.desc); err != nil {
			return fmt.Errorf("tracefile: replay: %w", err)
		}
	case opClearDescriptor:
		s.MC.ClearDescriptor(int(o.a))
	case opMCInvalidateTLB:
		s.MC.InvalidateTLB()
	case opMCInvalidateBufs:
		s.MC.InvalidateBuffers()
	case opSyscallStats:
		s.St.Syscalls += o.a
		s.St.SyscallCycles += o.b
	case opSectionBegin:
		*secs = append(*secs, s.BeginSection())
	case opSectionEnd:
		sec := (*secs)[len(*secs)-1]
		*secs = (*secs)[:len(*secs)-1]
		row, err := sec.End(mapLabel(o.label))
		if err != nil {
			return err
		}
		*rows = append(*rows, row)
	case opResult:
		row, err := s.Result(mapLabel(o.label))
		if err != nil {
			return err
		}
		*rows = append(*rows, row)
	}
	return nil
}
