// Package colres is the columnar result format: the one typed schema a
// finished experiment grid flows through from the harness row sink to
// the service archive, the SSE stream, and the CLI readers. A grid is
// encoded once per job as an append-friendly binary blob — fixed-width
// metric columns plus a string table, indexed by a footer written last
// so the encoder never seeks — and every human- or machine-facing
// rendering (Grid JSON, the paper-style text tables, the SVG chart) is
// a view computed lazily from the columns. The impulsed archive stores
// these blobs on disk and serves cache hits by writing the blob bytes it
// keeps straight to the response; see docs/RESULTS.md for the
// byte-level layout and compatibility policy.
package colres

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"impulse/internal/bitutil"
)

// ContentType is the MIME type of an encoded blob.
const ContentType = "application/x-impulse-columnar"

// Cell is one measured grid cell in columnar form: coordinates as
// string-table indices plus the fixed-width counters and derived stats
// every view needs. Percentiles are precomputed at build time (the
// latency histogram itself stays with the run; views only ever show
// p50/p95/p99).
type Cell struct {
	Section uint32 // index into Doc.Sections
	Column  uint32 // index into Doc.Columns

	Cycles   uint64
	Loads    uint64
	Stores   uint64
	BusBytes uint64
	P50      uint64 // load-latency percentiles, cycles
	P95      uint64
	P99      uint64

	L1      float64 // hit ratios in [0,1]
	L2      float64
	Mem     float64
	AvgLoad float64
	Speedup float64
}

// Doc is a decoded (or about-to-be-encoded) result document: the grid's
// identity strings plus its cells in section-major, column-minor order.
type Doc struct {
	Title    string
	Sections []string // section band labels, in order
	Columns  []string // table column headers (prefetch policies)
	Cells    []Cell
}

// Binary layout (version 01). All integers little-endian; "uvarint" is
// the unsigned LEB128 varint of encoding/binary (decoded by
// bitutil.Uvarint). Offsets are relative to the blob start.
//
//	magic      "IMPCOL01" (8 bytes)
//	columns    one fixed-width payload per column id, appended in id
//	           order: cellCount × 4 bytes (u32 ids), × 8 bytes (u64
//	           counters, f64 bit patterns)
//	strings    uvarint count, then per string uvarint length + bytes;
//	           entry 0 is the title, then sections, then column headers
//	footer     uvarint cellCount, nSections, nColumns;
//	           uvarint columnCount, then per column: 1-byte id,
//	           uvarint offset, uvarint length;
//	           uvarint stringsOffset, uvarint stringsLength
//	trailer    u32 footerOffset | u32 footerLength |
//	           u32 CRC-32 (IEEE) of everything before the trailer |
//	           "IMPF" (16 bytes)
//
// Readers parse from the end: fixed trailer, then footer, then only the
// slices a view actually touches. The footer index is what makes the
// blob append-friendly — the encoder emits column payloads as they
// complete and never rewrites earlier bytes.
var magic = [8]byte{'I', 'M', 'P', 'C', 'O', 'L', '0', '1'}

const (
	trailerLen  = 16
	trailerTail = "IMPF"
)

// Column ids. Order is the wire order; new columns append (readers
// reject unknown ids, so adding one bumps the version byte in magic).
const (
	colSection   = 1 + iota // u32
	colColumn               // u32
	colCycles               // u64
	colLoads                // u64
	colStores               // u64
	colBusBytes             // u64
	colP50                  // u64
	colP95                  // u64
	colP99                  // u64
	colL1                   // f64
	colL2                   // f64
	colMem                  // f64
	colAvgLoad              // f64
	colSpeedup              // f64
	numColumnIDs = colSpeedup
)

// colWidth is the fixed byte width of one value in column id.
func colWidth(id byte) int {
	if id == colSection || id == colColumn {
		return 4
	}
	return 8
}

// maxCells bounds decoded cell counts: a grid is sections × prefetch
// columns (a dozen cells today), so anything near this limit is a
// corrupt or adversarial footer, not a result.
const maxCells = 1 << 20

// Encode renders d as a standalone blob.
func Encode(d *Doc) []byte { return Append(nil, d) }

// Append appends d's encoding to buf and returns the extended slice.
// Offsets inside the encoding are relative to the blob's own start, so
// the appended bytes are a valid standalone blob.
func Append(buf []byte, d *Doc) []byte {
	base := len(buf)
	buf = append(buf, magic[:]...)
	n := len(d.Cells)

	type span struct {
		id       byte
		off, len int
	}
	spans := make([]span, 0, numColumnIDs)
	emit := func(id byte, put func(*Cell, []byte) []byte) {
		off := len(buf) - base
		for i := range d.Cells {
			buf = put(&d.Cells[i], buf)
		}
		spans = append(spans, span{id, off, len(buf) - base - off})
	}
	u32 := func(get func(*Cell) uint32) func(*Cell, []byte) []byte {
		return func(c *Cell, b []byte) []byte { return binary.LittleEndian.AppendUint32(b, get(c)) }
	}
	u64 := func(get func(*Cell) uint64) func(*Cell, []byte) []byte {
		return func(c *Cell, b []byte) []byte { return binary.LittleEndian.AppendUint64(b, get(c)) }
	}
	f64 := func(get func(*Cell) float64) func(*Cell, []byte) []byte {
		return func(c *Cell, b []byte) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(get(c)))
		}
	}
	emit(colSection, u32(func(c *Cell) uint32 { return c.Section }))
	emit(colColumn, u32(func(c *Cell) uint32 { return c.Column }))
	emit(colCycles, u64(func(c *Cell) uint64 { return c.Cycles }))
	emit(colLoads, u64(func(c *Cell) uint64 { return c.Loads }))
	emit(colStores, u64(func(c *Cell) uint64 { return c.Stores }))
	emit(colBusBytes, u64(func(c *Cell) uint64 { return c.BusBytes }))
	emit(colP50, u64(func(c *Cell) uint64 { return c.P50 }))
	emit(colP95, u64(func(c *Cell) uint64 { return c.P95 }))
	emit(colP99, u64(func(c *Cell) uint64 { return c.P99 }))
	emit(colL1, f64(func(c *Cell) float64 { return c.L1 }))
	emit(colL2, f64(func(c *Cell) float64 { return c.L2 }))
	emit(colMem, f64(func(c *Cell) float64 { return c.Mem }))
	emit(colAvgLoad, f64(func(c *Cell) float64 { return c.AvgLoad }))
	emit(colSpeedup, f64(func(c *Cell) float64 { return c.Speedup }))

	strOff := len(buf) - base
	buf = binary.AppendUvarint(buf, uint64(1+len(d.Sections)+len(d.Columns)))
	putStr := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	putStr(d.Title)
	for _, s := range d.Sections {
		putStr(s)
	}
	for _, s := range d.Columns {
		putStr(s)
	}
	strLen := len(buf) - base - strOff

	footerOff := len(buf) - base
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(d.Sections)))
	buf = binary.AppendUvarint(buf, uint64(len(d.Columns)))
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, s := range spans {
		buf = append(buf, s.id)
		buf = binary.AppendUvarint(buf, uint64(s.off))
		buf = binary.AppendUvarint(buf, uint64(s.len))
	}
	buf = binary.AppendUvarint(buf, uint64(strOff))
	buf = binary.AppendUvarint(buf, uint64(strLen))
	footerLen := len(buf) - base - footerOff

	sum := crc32.ChecksumIEEE(buf[base:]) // everything before the trailer
	buf = binary.LittleEndian.AppendUint32(buf, uint32(footerOff))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(footerLen))
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	buf = append(buf, trailerTail...)
	return buf
}

// decoder walks a footer/string-table region with bounds-checked varint
// reads.
type decoder struct {
	b   []byte
	pos int
	end int
}

func (d *decoder) u() (uint64, error) {
	v, n := bitutil.Uvarint(d.b[:d.end], d.pos)
	if n <= 0 {
		return 0, fmt.Errorf("colres: truncated or oversized varint at offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

// Decode parses blob into a Doc, validating the trailer, checksum,
// footer index, and every column and string bound. It never panics on
// malformed input (FuzzColumnarDecode pins that).
func Decode(blob []byte) (*Doc, error) {
	if len(blob) < len(magic)+trailerLen {
		return nil, fmt.Errorf("colres: blob too short (%d bytes)", len(blob))
	}
	if string(blob[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("colres: bad magic %q", blob[:len(magic)])
	}
	tr := blob[len(blob)-trailerLen:]
	if string(tr[12:]) != trailerTail {
		return nil, fmt.Errorf("colres: bad trailer magic %q", tr[12:])
	}
	footerOff := int(binary.LittleEndian.Uint32(tr[0:]))
	footerLen := int(binary.LittleEndian.Uint32(tr[4:]))
	footerEnd := len(blob) - trailerLen
	if footerOff < len(magic) || footerLen < 0 || footerOff+footerLen != footerEnd {
		return nil, fmt.Errorf("colres: footer [%d,+%d) does not abut the trailer at %d",
			footerOff, footerLen, footerEnd)
	}
	if got, want := crc32.ChecksumIEEE(blob[:footerEnd]), binary.LittleEndian.Uint32(tr[8:]); got != want {
		return nil, fmt.Errorf("colres: checksum mismatch (blob %08x, trailer %08x)", got, want)
	}

	f := &decoder{b: blob, pos: footerOff, end: footerEnd}
	cellCount, err := f.u()
	if err != nil {
		return nil, err
	}
	if cellCount > maxCells {
		return nil, fmt.Errorf("colres: implausible cell count %d", cellCount)
	}
	nSections, err := f.u()
	if err != nil {
		return nil, err
	}
	nColumns, err := f.u()
	if err != nil {
		return nil, err
	}
	colCount, err := f.u()
	if err != nil {
		return nil, err
	}
	if colCount != numColumnIDs {
		return nil, fmt.Errorf("colres: footer indexes %d columns, format has %d", colCount, numColumnIDs)
	}
	n := int(cellCount)
	var cols [numColumnIDs + 1][]byte
	for i := 0; i < int(colCount); i++ {
		if f.pos >= f.end {
			return nil, fmt.Errorf("colres: footer truncated in column index")
		}
		id := blob[f.pos]
		f.pos++
		off, err := f.u()
		if err != nil {
			return nil, err
		}
		length, err := f.u()
		if err != nil {
			return nil, err
		}
		if id < 1 || id > numColumnIDs {
			return nil, fmt.Errorf("colres: unknown column id %d", id)
		}
		if cols[id] != nil {
			return nil, fmt.Errorf("colres: duplicate column id %d", id)
		}
		if int(length) != n*colWidth(id) {
			return nil, fmt.Errorf("colres: column %d length %d != %d cells × %d bytes",
				id, length, n, colWidth(id))
		}
		// Subtraction form: off and length are unbounded uvarints, so
		// off+length can wrap past footerEnd and a sum check would pass.
		if off < uint64(len(magic)) || off > uint64(footerEnd) || length > uint64(footerEnd)-off {
			return nil, fmt.Errorf("colres: column %d span [%d,+%d) out of bounds", id, off, length)
		}
		cols[id] = blob[off : off+length]
	}
	strOff, err := f.u()
	if err != nil {
		return nil, err
	}
	strLen, err := f.u()
	if err != nil {
		return nil, err
	}
	if strOff < uint64(len(magic)) || strOff > uint64(footerEnd) || strLen > uint64(footerEnd)-strOff {
		return nil, fmt.Errorf("colres: string table [%d,+%d) out of bounds", strOff, strLen)
	}

	st := &decoder{b: blob, pos: int(strOff), end: int(strOff + strLen)}
	strCount, err := st.u()
	if err != nil {
		return nil, err
	}
	if strCount != 1+nSections+nColumns {
		return nil, fmt.Errorf("colres: string table holds %d entries, footer promises %d",
			strCount, 1+nSections+nColumns)
	}
	if strCount > strLen { // every entry costs at least its length byte
		return nil, fmt.Errorf("colres: %d string entries cannot fit %d table bytes", strCount, strLen)
	}
	strs := make([]string, 0, strCount)
	for i := uint64(0); i < strCount; i++ {
		l, err := st.u()
		if err != nil {
			return nil, err
		}
		if l > strLen || st.pos+int(l) > st.end {
			return nil, fmt.Errorf("colres: string %d overruns the table", i)
		}
		strs = append(strs, string(blob[st.pos:st.pos+int(l)]))
		st.pos += int(l)
	}

	d := &Doc{
		Title:    strs[0],
		Sections: strs[1 : 1+nSections],
		Columns:  strs[1+nSections:],
		Cells:    make([]Cell, n),
	}
	u32 := func(id byte, i int) uint32 { return binary.LittleEndian.Uint32(cols[id][i*4:]) }
	u64 := func(id byte, i int) uint64 { return binary.LittleEndian.Uint64(cols[id][i*8:]) }
	f64 := func(id byte, i int) float64 { return math.Float64frombits(u64(id, i)) }
	for i := range d.Cells {
		c := &d.Cells[i]
		c.Section, c.Column = u32(colSection, i), u32(colColumn, i)
		if c.Section >= uint32(nSections) || c.Column >= uint32(nColumns) {
			return nil, fmt.Errorf("colres: cell %d coordinates (%d,%d) outside %d×%d grid",
				i, c.Section, c.Column, nSections, nColumns)
		}
		c.Cycles = u64(colCycles, i)
		c.Loads = u64(colLoads, i)
		c.Stores = u64(colStores, i)
		c.BusBytes = u64(colBusBytes, i)
		c.P50 = u64(colP50, i)
		c.P95 = u64(colP95, i)
		c.P99 = u64(colP99, i)
		c.L1 = f64(colL1, i)
		c.L2 = f64(colL2, i)
		c.Mem = f64(colMem, i)
		c.AvgLoad = f64(colAvgLoad, i)
		c.Speedup = f64(colSpeedup, i)
	}
	return d, nil
}
