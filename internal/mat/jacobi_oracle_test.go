package mat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// The cyclic Jacobi eigensolver as it was written with the bounds-checked
// At/Set accessors. Kept verbatim as the oracle the raw-slice EigenSym
// must match bit for bit.

func oracleEigenSym(a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		return nil, nil, errors.New("mat: EigenSym of non-square matrix")
	}
	if !a.IsSymmetric(1e-10 * (1 + a.MaxAbs())) {
		return nil, nil, errors.New("mat: EigenSym of non-symmetric matrix")
	}
	m := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := oracleOffDiagNorm(m)
		if off <= 1e-14*(1+m.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				oracleApplyJacobi(m, v, p, q, cth, sth)
			}
		}
	}
	type pair struct {
		val float64
		col int
	}
	ps := make([]pair, n)
	for i := range ps {
		ps[i] = pair{m.At(i, i), i}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].val < ps[j].val })
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k, p := range ps {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p.col))
		}
	}
	return vals, vecs, nil
}

func oracleApplyJacobi(m, v *Dense, p, q int, c, s float64) {
	n := m.rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m.At(p, j), m.At(q, j)
		m.Set(p, j, c*mpj-s*mqj)
		m.Set(q, j, s*mpj+c*mqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func oracleOffDiagNorm(m *Dense) float64 {
	n := m.rows
	s := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s += m.At(i, j) * m.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// hermitianEmbedding returns the 2m-by-2m real symmetric embedding of the
// order-m forward–backward sample covariance of a noisy complex tone —
// the matrix root-MUSIC hands to EigenSym (m = 12 gives 24×24).
func hermitianEmbedding(rng *rand.Rand, m, samples int) *Dense {
	x := make([]complex128, samples)
	w := (rng.Float64() - 0.5) * 2 * math.Pi
	amp := math.Exp(rng.NormFloat64())
	sigma := amp * math.Pow(10, -(rng.Float64()*40-10)/20)
	for i := range x {
		x[i] = cmplx.Rect(amp, w*float64(i)) + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	r := make([]complex128, m*m)
	count := 0
	for s := 0; s+m <= samples; s++ {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r[i*m+j] += x[s+i] * cmplx.Conj(x[s+j])
			}
		}
		count++
	}
	e := NewDense(2*m, 2*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			h := (r[i*m+j] + cmplx.Conj(r[(m-1-i)*m+(m-1-j)])) / complex(2*float64(count), 0)
			e.Set(i, j, real(h))
			e.Set(i+m, j+m, real(h))
			e.Set(i, j+m, -imag(h))
			e.Set(i+m, j, imag(h))
		}
	}
	return e.Add(e.T()).Scale(0.5)
}

func assertEigenBitsEqual(t *testing.T, label string, a *Dense) {
	t.Helper()
	vals, vecs, err := EigenSym(a)
	wantVals, wantVecs, wantErr := oracleEigenSym(a)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: err %v, oracle err %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
			t.Fatalf("%s: eigenvalue %d = %v, oracle %v", label, i, vals[i], wantVals[i])
		}
	}
	for i, v := range vecs.data {
		if math.Float64bits(v) != math.Float64bits(wantVecs.data[i]) {
			t.Fatalf("%s: eigenvector element %d = %v, oracle %v", label, i, v, wantVecs.data[i])
		}
	}
}

func TestEigenSymMatchesAtSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		assertEigenBitsEqual(t, "random symmetric", randSym(rng, n))
	}
	for trial := 0; trial < 60; trial++ {
		assertEigenBitsEqual(t, "hermitian embedding", hermitianEmbedding(rng, 12, 128))
	}
	// Exact zeros off the diagonal exercise the skipped-rotation branch.
	assertEigenBitsEqual(t, "diagonal", Diag([]float64{3, -1, 2, 0}))
}

func TestJacobiKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := hermitianEmbedding(rng, 12, 128)
	v := Identity(24)
	var sink float64
	if avg := testing.AllocsPerRun(200, func() { applyJacobi(m, v, 3, 17, 0.8, 0.6) }); avg != 0 {
		t.Errorf("applyJacobi: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { sink += offDiagNorm(m) }); avg != 0 {
		t.Errorf("offDiagNorm: %v allocs/op, want 0", avg)
	}
	_ = sink
}
