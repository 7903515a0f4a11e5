// Package workloads implements the applications the paper evaluates —
// the NAS conjugate gradient benchmark (§3.1, Table 1) and tiled dense
// matrix-matrix product (§3.2, Table 2) — plus the diagonal-of-a-matrix
// microkernel of Figure 1 and the IPC message-gather scenario sketched in
// §6. Each workload runs against a core.System in one of the paper's
// memory-system configurations and is verified against a plain-Go
// reference computation.
package workloads

import "slices"

// randMask is 2^46-1: the NAS pseudorandom generator works modulo 2^46.
const randMask = (uint64(1) << 46) - 1

// nasAmult is the standard NPB multiplier 5^13.
const nasAmult uint64 = 1220703125

// nasSeed is the standard NPB CG seed.
const nasSeed uint64 = 314159265

// nasRand is the NAS parallel benchmarks linear congruential generator:
// x_{k+1} = a * x_k mod 2^46, returning x_{k+1} * 2^-46 in (0,1).
// NPB implements it in double-double arithmetic; since the modulus is a
// power of two, the low 46 bits of a 64-bit product are exact and give
// the identical sequence.
type nasRand struct {
	x uint64
	a uint64
}

func newNASRand(seed, a uint64) *nasRand {
	return &nasRand{x: seed & randMask, a: a & randMask}
}

// next advances the generator and returns the value scaled to (0,1).
func (r *nasRand) next() float64 {
	r.x = (r.x * r.a) & randMask
	return float64(r.x) * 0x1p-46
}

// icnvrt maps a uniform value in (0,1) to an integer in [0, ipwr2), the
// NPB icnvrt helper.
func icnvrt(x float64, ipwr2 int) int {
	return int(float64(ipwr2) * x)
}

// ceilPow2Int returns the smallest power of two >= n (NPB's nn1).
func ceilPow2Int(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// sprnvc generates a sparse random vector with nz distinct nonzero
// positions in [0, n), NPB's sprnvc: positions are drawn by the LCG and
// rejected if out of range or already drawn. The vector overwrites vals
// and idx, reusing their storage.
func sprnvc(n, nz int, rng *nasRand, vals []float64, idx []int) ([]float64, []int) {
	nn1 := ceilPow2Int(n)
	vals, idx = vals[:0], idx[:0]
	for len(idx) < nz {
		vecelt := rng.next()
		vecloc := rng.next()
		i := icnvrt(vecloc, nn1)
		if i >= n || slices.Contains(idx, i) {
			continue
		}
		vals = append(vals, vecelt)
		idx = append(idx, i)
	}
	return vals, idx
}

// vecset forces position i to value val in the sparse vector (NPB's
// vecset): overwrite if present, else append.
func vecset(vals []float64, idx []int, i int, val float64) ([]float64, []int) {
	for k, ii := range idx {
		if ii == i {
			vals[k] = val
			return vals, idx
		}
	}
	return append(vals, val), append(idx, i)
}
