// Package bitutil provides small bit-manipulation helpers used throughout
// the simulator: power-of-two arithmetic, alignment, bit-field
// extraction, and the varint decoder the columnar result formats share. The Impulse controller restricts remapped object sizes to
// powers of two precisely so that hardware can use these operations instead
// of division (paper §2.3); the simulator follows the same discipline.
package bitutil

import "math/bits"

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x uint64) bool {
	return x != 0 && x&(x-1) == 0
}

// Log2 returns floor(log2(x)). Log2(0) panics: the simulator never asks for
// the logarithm of zero, and silently returning a value would hide a
// geometry bug.
func Log2(x uint64) uint {
	if x == 0 {
		panic("bitutil: Log2 of zero")
	}
	return uint(63 - bits.LeadingZeros64(x))
}

// CeilPow2 returns the smallest power of two >= x. CeilPow2(0) == 1.
func CeilPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << uint(64-bits.LeadingZeros64(x-1))
}

// AlignDown rounds x down to a multiple of align, which must be a power of
// two.
func AlignDown(x, align uint64) uint64 {
	return x &^ (align - 1)
}

// AlignUp rounds x up to a multiple of align, which must be a power of two.
func AlignUp(x, align uint64) uint64 {
	return (x + align - 1) &^ (align - 1)
}

// IsAligned reports whether x is a multiple of align (a power of two).
func IsAligned(x, align uint64) bool {
	return x&(align-1) == 0
}

// Bits extracts bits [lo, hi] (inclusive, 0-indexed from the LSB) of x.
func Bits(x uint64, lo, hi uint) uint64 {
	if hi >= 63 {
		return x >> lo
	}
	return (x >> lo) & ((1 << (hi - lo + 1)) - 1)
}

// Mask returns a mask with the low n bits set.
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// Min returns the smaller of a and b.
func Min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
