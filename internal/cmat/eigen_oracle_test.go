package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"safesense/internal/mat"
)

// EigenHermitian as it was written with the bounds-checked At/Set
// accessors and an allocating (M + Mᵀ)·0.5 symmetrization. Kept verbatim
// as the oracle the raw-slice version must match bit for bit.
func oracleEigenHermitian(h *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := h.Dims()
	if n != c {
		return nil, nil, fmt.Errorf("cmat: EigenHermitian of non-square %dx%d matrix", n, c)
	}
	if !h.IsHermitian(1e-9 * (1 + h.MaxAbs())) {
		return nil, nil, fmt.Errorf("cmat: matrix is not Hermitian")
	}
	m := mat.NewDense(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := real(h.At(i, j))
			b := imag(h.At(i, j))
			m.Set(i, j, a)
			m.Set(i+n, j+n, a)
			m.Set(i, j+n, -b)
			m.Set(i+n, j, b)
		}
	}
	m = m.Add(m.T()).Scale(0.5)
	rvals, rvecs, err := mat.EigenSym(m)
	if err != nil {
		return nil, nil, err
	}
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k := 0; k < n; k++ {
		vals[k] = rvals[2*k]
	}
	for k := 0; k < n; k++ {
		extracted := false
		for cand := 0; cand < 2*n && !extracted; cand++ {
			if math.Abs(rvals[cand]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
				continue
			}
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = complex(rvecs.At(i, cand), rvecs.At(i+n, cand))
			}
			if vecNorm(v) < 1e-8 {
				continue
			}
			for p := 0; p < k; p++ {
				if math.Abs(vals[p]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
					continue
				}
				var dot complex128
				for i := 0; i < n; i++ {
					dot += cmplx.Conj(vecs.At(i, p)) * v[i]
				}
				for i := 0; i < n; i++ {
					v[i] -= dot * vecs.At(i, p)
				}
			}
			if nv := vecNorm(v); nv > 1e-7 {
				for i := 0; i < n; i++ {
					vecs.Set(i, k, v[i]/complex(nv, 0))
				}
				extracted = true
			}
		}
		if !extracted {
			return nil, nil, fmt.Errorf("cmat: failed to extract eigenvector %d", k)
		}
	}
	return vals, vecs, nil
}

func TestEigenHermitianMatchesAtSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(label string, h *Dense) {
		t.Helper()
		vals, vecs, err := EigenHermitian(h)
		wantVals, wantVecs, wantErr := oracleEigenHermitian(h)
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
			w := wantVecs.data[i]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: eigenvector element %d = %v, oracle %v", label, i, v, w)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		check("random hermitian", randHermitian(rng, 1+rng.Intn(12)))
	}
	// Rank-one plus identity: a degenerate noise subspace, the shape a
	// noiseless single-tone covariance has.
	n := 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 0.7*float64(i))
	}
	check("degenerate", Outer(x, x).Add(Identity(n)))
	// Asymmetry inside the Hermitian tolerance is what the embedding's
	// symmetrization rounds away; beyond it the input is rejected.
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(11)
		h := randHermitian(rng, n)
		for i := range h.data {
			h.data[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-12
		}
		check("near-hermitian", h)
	}
	h := randHermitian(rng, 4)
	h.data[1] += 1e-3
	check("non-hermitian", h)
}
