package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randCDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func randHermitian(rng *rand.Rand, n int) *Dense {
	a := randCDense(rng, n, n)
	return a.Add(a.ConjT()).Scale(0.5)
}

func TestConjT(t *testing.T) {
	a := NewDenseData(1, 2, []complex128{1 + 2i, 3 - 1i})
	h := a.ConjT()
	if h.At(0, 0) != 1-2i || h.At(1, 0) != 3+1i {
		t.Fatalf("ConjT = %v %v", h.At(0, 0), h.At(1, 0))
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCDense(rng, 3, 3)
	if !a.Mul(Identity(3)).EqualApprox(a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestIsHermitian(t *testing.T) {
	h := NewDenseData(2, 2, []complex128{2, 1 + 1i, 1 - 1i, 3})
	if !h.IsHermitian(1e-12) {
		t.Fatal("Hermitian matrix not detected")
	}
	nh := NewDenseData(2, 2, []complex128{2 + 1i, 1, 1, 3})
	if nh.IsHermitian(1e-12) {
		t.Fatal("matrix with complex diagonal passed")
	}
}

func TestOuterHermitianProperty(t *testing.T) {
	// x*x^H is always Hermitian PSD.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return Outer(x, x).IsHermitian(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenHermitianKnown(t *testing.T) {
	// [[2, i], [-i, 2]] has eigenvalues 1 and 3.
	h := NewDenseData(2, 2, []complex128{2, 1i, -1i, 2})
	vals, vecs, err := EigenHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-8 || math.Abs(vals[1]-3) > 1e-8 {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
	// Each column must satisfy H v = lambda v.
	for k := 0; k < 2; k++ {
		v := []complex128{vecs.At(0, k), vecs.At(1, k)}
		hv := h.MulVec(v)
		for i := range hv {
			if cmplx.Abs(hv[i]-complex(vals[k], 0)*v[i]) > 1e-8 {
				t.Fatalf("Hv != lambda v for k=%d", k)
			}
		}
	}
}

func TestEigenHermitianReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		h := randHermitian(rng, n)
		vals, vecs, err := EigenHermitian(h)
		if err != nil {
			return false
		}
		// Ascending eigenvalues.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		// V^H V = I.
		if !vecs.ConjT().Mul(vecs).EqualApprox(Identity(n), 1e-6) {
			return false
		}
		// H = V diag V^H.
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, complex(vals[i], 0))
		}
		rec := vecs.Mul(d).Mul(vecs.ConjT())
		return rec.EqualApprox(h, 1e-6*(1+h.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenHermitianDegenerate(t *testing.T) {
	// sigma^2 * I plus a rank-1 signal: the MUSIC covariance structure.
	// Noise eigenvalue 0.5 is (n-1)-fold degenerate.
	n := 5
	rng := rand.New(rand.NewSource(42))
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 0.7*float64(i))) // steering-like vector
	}
	_ = rng
	h := Outer(x, x).Scale(2).Add(Identity(n).Scale(0.5))
	vals, vecs, err := EigenHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	// n-1 eigenvalues at 0.5, one at 0.5 + 2*|x|^2 = 0.5 + 2n.
	for i := 0; i < n-1; i++ {
		if math.Abs(vals[i]-0.5) > 1e-7 {
			t.Fatalf("noise eigenvalue %d = %v, want 0.5", i, vals[i])
		}
	}
	if math.Abs(vals[n-1]-(0.5+2*float64(n))) > 1e-6 {
		t.Fatalf("signal eigenvalue = %v, want %v", vals[n-1], 0.5+2*float64(n))
	}
	// Noise eigenvectors must be orthogonal to the signal vector x.
	for k := 0; k < n-1; k++ {
		var dot complex128
		for i := 0; i < n; i++ {
			dot += cmplx.Conj(vecs.At(i, k)) * x[i]
		}
		if cmplx.Abs(dot) > 1e-6 {
			t.Fatalf("noise eigenvector %d not orthogonal to signal: |dot| = %v", k, cmplx.Abs(dot))
		}
	}
	// And mutually orthonormal.
	if !vecs.ConjT().Mul(vecs).EqualApprox(Identity(n), 1e-6) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestEigenHermitianRejectsBadInput(t *testing.T) {
	if _, _, err := EigenHermitian(NewDense(2, 3)); err == nil {
		t.Fatal("non-square should fail")
	}
	nh := NewDenseData(2, 2, []complex128{1, 2, 3, 4})
	if _, _, err := EigenHermitian(nh); err == nil {
		t.Fatal("non-Hermitian should fail")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 2, []complex128{1, 1i, -1i, 2})
	got := a.MulVec([]complex128{1, 1})
	if cmplx.Abs(got[0]-(1+1i)) > 1e-12 || cmplx.Abs(got[1]-(2-1i)) > 1e-12 {
		t.Fatalf("MulVec = %v", got)
	}
}

// ConjT has no caller outside the tests.

// ConjT returns the conjugate transpose (Hermitian adjoint) of m.
func (m *Dense) ConjT() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return t
}
