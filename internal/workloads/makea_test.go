package workloads

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refMakeA is the map-based generator MakeA replaced, kept verbatim as
// the reference the counting-sort assembly must reproduce bit for bit:
// one map per matrix row accumulates every contribution in generation
// order from the map's zero value, and each row's columns come out in
// sort.Ints order.
func refMakeA(n, nonzer int, rcond, shift float64) *SparseMatrix {
	rng := newNASRand(nasSeed, nasAmult)
	// NPB burns one value to initialize (the zeta = randlc(tran, amult)
	// call before makea).
	rng.next()

	acc := make([]map[uint32]float64, n)
	for i := range acc {
		acc[i] = make(map[uint32]float64, 2*nonzer)
	}
	size := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for iouter := 0; iouter < n; iouter++ {
		vals, idx := refSprnvc(n, nonzer, rng)
		vals, idx = vecset(vals, idx, iouter, 0.5)
		for ivelt, jcol := range idx {
			scale := size * vals[ivelt]
			for ivelt1, irow := range idx {
				acc[irow][uint32(jcol)] += vals[ivelt1] * scale
			}
		}
		size *= ratio
	}
	for i := 0; i < n; i++ {
		acc[i][uint32(i)] += rcond - shift
	}

	m := &SparseMatrix{N: n, Rows: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(acc[i]))
		for c := range acc[i] {
			cols = append(cols, int(c))
		}
		sort.Ints(cols)
		for _, c := range cols {
			m.Cols = append(m.Cols, uint32(c))
			m.Vals = append(m.Vals, acc[i][uint32(c)])
		}
		m.Rows[i+1] = int32(len(m.Vals))
	}
	return m
}

// refSprnvc is the sprnvc refMakeA was written against: a fresh map and
// fresh buffers for every vector.
func refSprnvc(n, nz int, rng *nasRand) (vals []float64, idx []int) {
	nn1 := ceilPow2Int(n)
	seen := make(map[int]bool, nz)
	vals = make([]float64, 0, nz)
	idx = make([]int, 0, nz)
	for len(idx) < nz {
		vecelt := rng.next()
		vecloc := rng.next()
		i := icnvrt(vecloc, nn1)
		if i >= n || seen[i] {
			continue
		}
		seen[i] = true
		vals = append(vals, vecelt)
		idx = append(idx, i)
	}
	return vals, idx
}

// TestMakeAMatchesReference pins the generator bit for bit: Rows, Cols
// and the bit pattern of every value must equal the map-based
// reference's, across the unit-test geometries, NPB Class S, the cold
// service jobs' range, the benchmark geometry, nonzer at its n bound,
// denser vectors, and the paper-size dimensions of the Table 1 grid.
func TestMakeAMatchesReference(t *testing.T) {
	cases := []struct {
		n, nonzer int
		long      bool
	}{
		{60, 4, false}, {120, 5, false}, {240, 4, false},
		{1400, 7, false},
		{1800, 7, false}, {1897, 7, false}, {1996, 7, false},
		{8192, 6, false},
		{16, 16, false},
		{500, 11, false}, {500, 15, false},
		{13860, 7, true}, {13930, 7, true}, {14000, 7, true}, {14070, 7, true}, {14140, 7, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d-nonzer%d", tc.n, tc.nonzer), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("paper-size matrix")
			}
			const rcond, shift = 0.1, 20
			got, want := MakeA(tc.n, tc.nonzer, rcond, shift), refMakeA(tc.n, tc.nonzer, rcond, shift)
			if got.N != want.N || len(got.Rows) != len(want.Rows) || len(got.Cols) != len(want.Cols) || len(got.Vals) != len(want.Vals) {
				t.Fatalf("shape: N=%d rows=%d cols=%d vals=%d, want N=%d rows=%d cols=%d vals=%d",
					got.N, len(got.Rows), len(got.Cols), len(got.Vals), want.N, len(want.Rows), len(want.Cols), len(want.Vals))
			}
			for i := range want.Rows {
				if got.Rows[i] != want.Rows[i] {
					t.Fatalf("Rows[%d] = %d, want %d", i, got.Rows[i], want.Rows[i])
				}
			}
			for j := range want.Cols {
				if got.Cols[j] != want.Cols[j] {
					t.Fatalf("Cols[%d] = %d, want %d", j, got.Cols[j], want.Cols[j])
				}
				if g, w := math.Float64bits(got.Vals[j]), math.Float64bits(want.Vals[j]); g != w {
					t.Fatalf("Vals[%d] bits %#x, want %#x", j, g, w)
				}
			}
		})
	}
}

// TestMakeAAllocs bounds one call's heap allocations at a cold service
// job's size: the assembly allocates a fixed set of arrays, not one
// object per row or per contribution.
func TestMakeAAllocs(t *testing.T) {
	const budget = 32
	if avg := testing.AllocsPerRun(3, func() { MakeA(1900, 7, 0.1, 20) }); avg > budget {
		t.Errorf("MakeA(1900, 7) allocates %.0f times per call, budget %d", avg, budget)
	}
}
