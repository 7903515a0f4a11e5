package bitutil

import (
	"encoding/binary"
	"math"
	"testing"
)

// checkUvarint requires Uvarint(b, pos) to decode exactly what
// binary.Uvarint decodes from b[pos:].
func checkUvarint(t *testing.T, b []byte, pos int) {
	t.Helper()
	wantV, wantN := binary.Uvarint(b[pos:])
	if v, n := Uvarint(b, pos); v != wantV || n != wantN {
		t.Errorf("Uvarint(% x, %d) = (%d, %d), binary.Uvarint = (%d, %d)", b, pos, v, n, wantV, wantN)
	}
}

// TestUvarint compares Uvarint with encoding/binary.Uvarint on every 1- and
// 2-byte input, the 3-byte arm's boundaries, the 10-byte maximum, an
// overflow, truncated encodings and a nonzero starting position.
func TestUvarint(t *testing.T) {
	for x := 0; x < 1<<8; x++ {
		checkUvarint(t, []byte{byte(x)}, 0)
	}
	for x := 0; x < 1<<16; x++ {
		checkUvarint(t, []byte{byte(x), byte(x >> 8)}, 0)
	}

	var cases [][]byte
	for _, v := range []uint64{1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		cases = append(cases, enc)
		for cut := 1; cut < len(enc); cut++ {
			cases = append(cases, enc[:cut]) // truncated
		}
	}
	if n := len(binary.AppendUvarint(nil, math.MaxUint64)); n != binary.MaxVarintLen64 {
		t.Fatalf("MaxUint64 encodes in %d bytes, want %d", n, binary.MaxVarintLen64)
	}
	overflow := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	cases = append(cases, overflow, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	for _, enc := range cases {
		checkUvarint(t, enc, 0)
		// The same encoding after a prefix, trailed by another value.
		b := append(append([]byte{0x81, 0x01, 0x7f}, enc...), 0x05)
		checkUvarint(t, b, 3)
	}
	if _, n := binary.Uvarint(overflow); n >= 0 {
		t.Errorf("11-byte input decoded with n=%d, want an overflow (n < 0)", n)
	}

	for _, b := range [][]byte{nil, {}, {0x01}, {0x80, 0x01}} {
		for pos := len(b); pos <= len(b)+2; pos++ {
			if v, n := Uvarint(b, pos); v != 0 || n != 0 {
				t.Errorf("Uvarint(% x, %d) = (%d, %d), want (0, 0)", b, pos, v, n)
			}
		}
	}
}
