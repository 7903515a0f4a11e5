package bitutil

import "encoding/binary"

// Uvarint decodes one unsigned varint from b starting at pos, with
// explicit 1/2/3-byte fast-path arms: in the columnar result footers and
// row chunks built on this encoding almost every value fits three bytes.
// It returns the value and the number of bytes consumed; n <= 0 mirrors
// binary.Uvarint's contract (0 means truncated, < 0 means overflow), and
// pos >= len(b) returns (0, 0). The guards chain — reaching the 2-byte
// arm implies b[pos] >= 0x80, the 3-byte arm implies b[pos+1] >= 0x80 —
// so each arm decodes exactly what binary.Uvarint would.
func Uvarint(b []byte, pos int) (uint64, int) {
	if pos >= len(b) {
		return 0, 0
	}
	if b[pos] < 0x80 {
		return uint64(b[pos]), 1
	}
	if pos+1 < len(b) && b[pos+1] < 0x80 {
		return uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7, 2
	}
	if pos+2 < len(b) && b[pos+2] < 0x80 {
		return uint64(b[pos]&0x7f) | uint64(b[pos+1]&0x7f)<<7 | uint64(b[pos+2])<<14, 3
	}
	return binary.Uvarint(b[pos:])
}
