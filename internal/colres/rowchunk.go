package colres

import (
	"encoding/binary"
	"fmt"
	"math"

	"impulse/internal/bitutil"
)

// Row is one grid cell's metrics as they stream over SSE while a job is
// still running: the same fixed-width columns a finished blob carries,
// framed as a self-contained record because incremental consumers see
// cells one at a time, before the footer index can exist. The label is
// the row's harness label (section/config); coordinates resolve only
// once the whole grid is assembled.
type Row struct {
	Label    string
	Cycles   uint64
	Loads    uint64
	Stores   uint64
	BusBytes uint64
	P50      uint64
	P95      uint64
	P99      uint64
	L1       float64
	L2       float64
	Mem      float64
	AvgLoad  float64
}

// EncodeRow frames r as one binary chunk: uvarint label length + label,
// uvarint counters, then the four ratio/latency floats as fixed 8-byte
// IEEE-754 bit patterns.
func EncodeRow(r Row) []byte {
	buf := make([]byte, 0, 64+len(r.Label))
	buf = binary.AppendUvarint(buf, uint64(len(r.Label)))
	buf = append(buf, r.Label...)
	for _, v := range [...]uint64{r.Cycles, r.Loads, r.Stores, r.BusBytes, r.P50, r.P95, r.P99} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, v := range [...]float64{r.L1, r.L2, r.Mem, r.AvgLoad} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeRow parses one EncodeRow chunk.
func DecodeRow(b []byte) (Row, error) {
	var r Row
	pos := 0
	u := func() (uint64, error) {
		v, n := bitutil.Uvarint(b, pos)
		if n <= 0 {
			return 0, fmt.Errorf("colres: truncated row chunk at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	l, err := u()
	if err != nil {
		return r, err
	}
	if l > uint64(len(b)-pos) {
		return r, fmt.Errorf("colres: row label overruns chunk")
	}
	r.Label = string(b[pos : pos+int(l)])
	pos += int(l)
	for _, dst := range [...]*uint64{&r.Cycles, &r.Loads, &r.Stores, &r.BusBytes, &r.P50, &r.P95, &r.P99} {
		if *dst, err = u(); err != nil {
			return r, err
		}
	}
	for _, dst := range [...]*float64{&r.L1, &r.L2, &r.Mem, &r.AvgLoad} {
		if pos+8 > len(b) {
			return r, fmt.Errorf("colres: truncated row chunk at offset %d", pos)
		}
		*dst = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		pos += 8
	}
	if pos != len(b) {
		return r, fmt.Errorf("colres: %d trailing bytes after row chunk", len(b)-pos)
	}
	return r, nil
}
