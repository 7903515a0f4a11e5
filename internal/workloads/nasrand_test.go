package workloads

import (
	"math"
	"testing"
)

func TestNASRandRange(t *testing.T) {
	r := newNASRand(nasSeed, nasAmult)
	prev := -1.0
	for i := 0; i < 10000; i++ {
		v := r.next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %d out of (0,1): %v", i, v)
		}
		if v == prev {
			t.Fatalf("generator stuck at %v", v)
		}
		prev = v
	}
}

func TestNASRandDeterministic(t *testing.T) {
	a := newNASRand(nasSeed, nasAmult)
	b := newNASRand(nasSeed, nasAmult)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
}

// The NPB generator's defining property: x_{k+1} = a*x_k mod 2^46.
func TestNASRandRecurrence(t *testing.T) {
	r := newNASRand(nasSeed, nasAmult)
	x := uint64(314159265)
	for i := 0; i < 100; i++ {
		want := (x * nasAmult) & randMask
		got := r.next()
		if got != float64(want)*math.Exp2(-46) {
			t.Fatalf("step %d: %v != %v", i, got, float64(want)*math.Exp2(-46))
		}
		x = want
	}
}

func TestSprnvc(t *testing.T) {
	r := newNASRand(nasSeed, nasAmult)
	vals, idx := sprnvc(100, 12, r, nil, nil)
	if len(vals) != 12 || len(idx) != 12 {
		t.Fatalf("lengths %d/%d", len(vals), len(idx))
	}
	seen := map[int]bool{}
	for k, i := range idx {
		if i < 0 || i >= 100 {
			t.Errorf("index %d out of range", i)
		}
		if seen[i] {
			t.Errorf("duplicate index %d", i)
		}
		seen[i] = true
		if vals[k] <= 0 || vals[k] >= 1 {
			t.Errorf("value %v out of range", vals[k])
		}
	}
}

func TestVecset(t *testing.T) {
	vals := []float64{0.1, 0.2}
	idx := []int{3, 7}
	vals, idx = vecset(vals, idx, 7, 0.5)
	if len(vals) != 2 || vals[1] != 0.5 {
		t.Error("vecset overwrite failed")
	}
	vals, idx = vecset(vals, idx, 9, 0.5)
	if len(vals) != 3 || idx[2] != 9 || vals[2] != 0.5 {
		t.Error("vecset append failed")
	}
}

func TestCeilPow2Int(t *testing.T) {
	cases := [][2]int{{1, 1}, {2, 2}, {3, 4}, {100, 128}, {1400, 2048}, {14000, 16384}}
	for _, c := range cases {
		if got := ceilPow2Int(c[0]); got != c[1] {
			t.Errorf("ceilPow2Int(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestMakeAStructure(t *testing.T) {
	m := MakeA(120, 5, 0.1, 10)
	if m.N != 120 || len(m.Rows) != 121 {
		t.Fatalf("dims: N=%d rows=%d", m.N, len(m.Rows))
	}
	if m.NNZ() == 0 || m.NNZ() != int(m.Rows[120]) {
		t.Fatalf("nnz accounting: %d vs %d", m.NNZ(), m.Rows[120])
	}
	// Rows sorted by column, all nonzero rows have a diagonal entry.
	for i := 0; i < m.N; i++ {
		hasDiag := false
		for j := m.Rows[i]; j < m.Rows[i+1]; j++ {
			if j > m.Rows[i] && m.Cols[j] <= m.Cols[j-1] {
				t.Fatalf("row %d not strictly sorted", i)
			}
			if int(m.Cols[j]) == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			t.Errorf("row %d missing diagonal", i)
		}
	}
	if !m.IsSymmetric(1e-12) {
		t.Error("generated matrix not symmetric")
	}
	// Determinism.
	m2 := MakeA(120, 5, 0.1, 10)
	if m2.NNZ() != m.NNZ() || m2.Vals[10] != m.Vals[10] {
		t.Error("MakeA not deterministic")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	m := MakeA(60, 4, 0.1, 10)
	dense := make([][]float64, 60)
	for i := range dense {
		dense[i] = make([]float64, 60)
		for j := m.Rows[i]; j < m.Rows[i+1]; j++ {
			dense[i][m.Cols[j]] = m.Vals[j]
		}
	}
	src := make([]float64, 60)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	dst := make([]float64, 60)
	m.MulVec(dst, src)
	for i := 0; i < 60; i++ {
		var want float64
		for j := 0; j < 60; j++ {
			want += dense[i][j] * src[j]
		}
		if math.Abs(dst[i]-want) > 1e-9 {
			t.Fatalf("row %d: %v != %v", i, dst[i], want)
		}
	}
}

func TestRefCGConverges(t *testing.T) {
	par := CGClassTiny()
	m := MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	zeta, rnorm := RefCG(m, par)
	if math.IsNaN(zeta) || math.IsInf(zeta, 0) {
		t.Fatalf("zeta = %v", zeta)
	}
	// zeta = shift + 1/(x·z) must be positive, below the shift (A's
	// largest eigenvalue is near 1, so x·z < 0 after the shift), and
	// stable: more CG iterations must not move it far.
	if zeta <= 0 || zeta >= par.Shift {
		t.Errorf("zeta = %v outside (0, shift=%v)", zeta, par.Shift)
	}
	if rnorm > 1 {
		t.Errorf("residual %v did not shrink", rnorm)
	}
	par2 := par
	par2.CGIts *= 2
	zeta2, _ := RefCG(m, par2)
	if diff := math.Abs(zeta2 - zeta); diff > 0.5 {
		t.Errorf("zeta unstable under more CG iterations: %v vs %v", zeta, zeta2)
	}
}

// TestNPBClassSVerification checks the strongest external oracle we
// have: the NAS Parallel Benchmarks publish the verification value for
// CG Class S (n=1400, nonzer=7, 15 outer iterations, shift=10):
// zeta = 8.5971775078648. Matching it to every printed digit means the
// random-number generator, the makea matrix generator, and the CG
// iteration are all bit-faithful to the NPB specification.
func TestNPBClassSVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("full Class S reference solve")
	}
	par := CGClassS()
	m := MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	if m.NNZ() != 78148 {
		t.Errorf("Class S nonzeros = %d, want 78148", m.NNZ())
	}
	zeta, _ := RefCG(m, par)
	const want = 8.5971775078648
	if math.Abs(zeta-want) > 1e-10 {
		t.Errorf("Class S zeta = %.13f, want %.13f (NPB verification value)", zeta, want)
	}
}

// TestNPBClassAVerification is the Class A counterpart of the Class S
// oracle: n=14000, nonzer=11, 15 outer iterations of 25 CG iterations,
// shift=20. NPB publishes zeta = 17.130235054029 for it, and makea
// generates 1,853,104 nonzeros at this size.
func TestNPBClassAVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("full Class A reference solve")
	}
	par := CGParams{N: 14000, Nonzer: 11, Niter: 15, CGIts: 25, Shift: 20, RCond: 0.1}
	m := MakeA(par.N, par.Nonzer, par.RCond, par.Shift)
	if m.NNZ() != 1853104 {
		t.Errorf("Class A nonzeros = %d, want 1853104", m.NNZ())
	}
	zeta, _ := RefCG(m, par)
	const want = 17.130235054029
	if math.Abs(zeta-want) > 1e-10 {
		t.Errorf("Class A zeta = %.13f, want %.12f (NPB verification value)", zeta, want)
	}
}
