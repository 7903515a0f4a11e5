package workloads

import (
	"math"
	"slices"
)

// SparseMatrix is a CSR-encoded sparse matrix, exactly the encoding of
// the paper's Figure 4: Rows[i] indicates where row i begins in Vals,
// Cols[j] indicates which column the element stored in Vals[j] comes
// from. Indices are 0-based.
type SparseMatrix struct {
	N    int
	Rows []int32 // length N+1
	Cols []uint32
	Vals []float64
}

// NNZ returns the number of stored nonzeros.
func (m *SparseMatrix) NNZ() int { return len(m.Vals) }

// MulVec computes dst = m * src on the host (the reference SMVP used to
// verify the simulated kernels).
func (m *SparseMatrix) MulVec(dst, src []float64) {
	for i := 0; i < m.N; i++ {
		var sum float64
		for j := m.Rows[i]; j < m.Rows[i+1]; j++ {
			sum += m.Vals[j] * src[m.Cols[j]]
		}
		dst[i] = sum
	}
}

// MakeA generates the NAS CG input matrix (NPB's makea): the sum of n
// outer products of sparse random vectors with geometrically decaying
// weights, plus (rcond - shift) added to the diagonal. The result is a
// symmetric positive-definite matrix with condition number ~rcond and
// eigenvalue distribution suitable for the benchmark's power iteration.
//
// MakeA requires 1 <= nonzer <= n (CGParams.Validate checks it): every
// vector holds nonzer distinct positions in [0, n), and sprnvc draws
// until it has them, so with nonzer > n MakeA never returns.
//
// The matrix is assembled by counting sort, as NPB's sparse() does.
// Vector v adds x_v[r]·(size_v·x_v[c]) to entry (r, c) for every pair
// of its positions. Bucketing the vectors' positions by column (a
// stable counting sort) lists each column's contributions in generation
// order; scattering the columns, in ascending order, into their rows (a
// second stable pass) leaves each row sorted by column with an entry's
// contributions adjacent and in generation order. Each entry is their
// sum from +0.0, exactly what accumulating into a zeroed entry per
// contribution, in generation order, computes.
func MakeA(n, nonzer int, rcond, shift float64) *SparseMatrix {
	vs := drawVectors(n, nonzer, rcond)

	// Column c's contributions come from the vectors holding position
	// c: their entries byCol[colStart[c]:colStart[c+1]], by ascending
	// vector.
	colStart := make([]int, n+1)
	for _, c := range vs.pos {
		colStart[c+1]++
	}
	for c := 0; c < n; c++ {
		colStart[c+1] += colStart[c]
	}
	type entry struct{ e, v int32 } // entry e of vector v
	byCol := make([]entry, len(vs.pos))
	fill := slices.Clone(colStart[:n])
	for v := 0; v < n; v++ {
		for e := vs.start[v]; e < vs.start[v+1]; e++ {
			c := vs.pos[e]
			byCol[fill[c]] = entry{e, int32(v)}
			fill[c]++
		}
	}

	// Two passes over the contributions in column order: the first
	// counts each row's distinct columns, the second writes them. A row
	// meets column c for the first time when last[r] != c.
	m := &SparseMatrix{N: n, Rows: make([]int32, n+1)}
	last := make([]int32, n)
	resetLast := func() {
		for r := range last {
			last[r] = -1
		}
	}
	resetLast()
	for c := int32(0); c < int32(n); c++ {
		for _, en := range byCol[colStart[c]:colStart[c+1]] {
			for _, r := range vs.pos[vs.start[en.v]:vs.start[en.v+1]] {
				if last[r] != c {
					last[r] = c
					m.Rows[r+1]++
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		m.Rows[r+1] += m.Rows[r]
	}
	nnz := m.Rows[n]
	m.Cols, m.Vals = make([]uint32, nnz), make([]float64, nnz)
	next := slices.Clone(m.Rows[:n])
	resetLast()
	for c := int32(0); c < int32(n); c++ {
		for _, en := range byCol[colStart[c]:colStart[c+1]] {
			scale := vs.scale[en.e]
			for f := vs.start[en.v]; f < vs.start[en.v+1]; f++ {
				r := vs.pos[f]
				if last[r] != c {
					last[r] = c
					m.Cols[next[r]] = uint32(c)
					next[r]++
				}
				m.Vals[next[r]-1] += vs.val[f] * scale
			}
		}
		// Vector c holds position c (vecset), so (c, c) is row c's
		// latest entry; the diagonal term is its last contribution.
		m.Vals[next[c]-1] += rcond - shift
	}
	return m
}

// outerVectors are MakeA's n weighted sparse vectors in flat arrays.
// Vector v's entries are start[v]:start[v+1], in the order sprnvc and
// vecset produced them: entry e is position pos[e] holding element
// val[e], and scale[e] = size_v·val[e] is the weight column pos[e]
// gives the vector's contributions.
type outerVectors struct {
	start      []int32
	pos        []int32
	val, scale []float64
}

// drawVectors draws MakeA's vectors from the NPB generator, in makea's
// order: sprnvc's nonzer random positions, then vecset's forced 0.5 at
// the vector's own index, with weights decaying geometrically from 1 to
// rcond.
func drawVectors(n, nonzer int, rcond float64) outerVectors {
	rng := newNASRand(nasSeed, nasAmult)
	// NPB burns one value to initialize (the zeta = randlc(tran, amult)
	// call before makea).
	rng.next()

	total := n * (nonzer + 1) // vecset adds at most one entry
	vs := outerVectors{
		start: make([]int32, n+1),
		pos:   make([]int32, 0, total),
		val:   make([]float64, 0, total),
		scale: make([]float64, 0, total),
	}
	vals, idx := make([]float64, 0, nonzer+1), make([]int, 0, nonzer+1)
	size := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for iouter := 0; iouter < n; iouter++ {
		vals, idx = sprnvc(n, nonzer, rng, vals, idx)
		vals, idx = vecset(vals, idx, iouter, 0.5)
		for k, i := range idx {
			vs.pos = append(vs.pos, int32(i))
			vs.val = append(vs.val, vals[k])
			vs.scale = append(vs.scale, size*vals[k])
		}
		vs.start[iouter+1] = int32(len(vs.pos))
		size *= ratio
	}
	return vs
}

// IsSymmetric verifies A = A^T within tol (a structural sanity check on
// the generator: the sum of outer products x x^T is symmetric).
func (m *SparseMatrix) IsSymmetric(tol float64) bool {
	type key struct{ r, c uint32 }
	elems := make(map[key]float64, m.NNZ())
	for i := 0; i < m.N; i++ {
		for j := m.Rows[i]; j < m.Rows[i+1]; j++ {
			elems[key{uint32(i), m.Cols[j]}] = m.Vals[j]
		}
	}
	for k, v := range elems {
		if math.Abs(v-elems[key{k.c, k.r}]) > tol {
			return false
		}
	}
	return true
}
