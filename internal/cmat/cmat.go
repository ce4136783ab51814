// Package cmat implements the small complex dense linear algebra kernel
// required by the root-MUSIC beat-frequency estimator: complex matrix
// arithmetic and a Hermitian eigendecomposition obtained via the standard
// real-symmetric embedding handled by internal/mat.
package cmat

import (
	"fmt"
	"math"
	"math/cmplx"

	"safesense/internal/mat"
)

// Dense is a row-major dense complex matrix.
type Dense struct {
	rows, cols int
	data       []complex128
}

// NewDense returns an r-by-c zero complex matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("cmat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]complex128, r*c)}
}

// NewDenseData returns an r-by-c matrix backed by a copy of data (row-major).
func NewDenseData(r, c int, data []complex128) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("cmat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n-by-n complex identity.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// RawData returns the row-major backing slice (not a copy), for kernels
// that index it directly.
func (m *Dense) RawData() []complex128 { return m.data }

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense { return NewDenseData(m.rows, m.cols, m.data) }

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameDims(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Scale returns s*m.
func (m *Dense) Scale(s complex128) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the product m*b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			orow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns m*x.
func (m *Dense) MulVec(x []complex128) []complex128 {
	if m.cols != len(x) {
		panic("cmat: MulVec dimension mismatch")
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		var s complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// IsHermitian reports whether m equals its conjugate transpose within tol.
func (m *Dense) IsHermitian(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	n := m.cols
	for i := 0; i < m.rows; i++ {
		if math.Abs(imag(m.data[i*n+i])) > tol {
			return false
		}
		for j := i + 1; j < n; j++ {
			if cmplx.Abs(m.data[i*n+j]-cmplx.Conj(m.data[j*n+i])) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest element magnitude.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// EqualApprox reports element-wise agreement within tol (by magnitude of the
// difference).
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if cmplx.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func (m *Dense) sameDims(b *Dense, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("cmat: %s dimension mismatch", op))
	}
}

// Outer returns x * y^H (conjugating y), the building block of sample
// covariance estimation.
func Outer(x, y []complex128) *Dense {
	m := NewDense(len(x), len(y))
	for i, xv := range x {
		for j, yv := range y {
			m.data[i*m.cols+j] = xv * cmplx.Conj(yv)
		}
	}
	return m
}

// EigenHermitian computes the eigendecomposition of the Hermitian matrix h.
// Eigenvalues are returned in ascending order; the columns of the returned
// matrix are the corresponding orthonormal eigenvectors.
//
// The computation embeds H = A + iB into the real symmetric matrix
//
//	M = [ A  -B ]
//	    [ B   A ]
//
// whose spectrum is that of H with every eigenvalue doubled; a real
// eigenvector (x; y) of M maps to the complex eigenvector x + iy of H. The
// doubled eigenvalues are de-duplicated by taking every second one and
// re-orthonormalizing vectors that land in the same eigenspace.
func EigenHermitian(h *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := h.Dims()
	if n != c {
		return nil, nil, fmt.Errorf("cmat: EigenHermitian of non-square %dx%d matrix", n, c)
	}
	if !h.IsHermitian(1e-9 * (1 + h.MaxAbs())) {
		return nil, nil, fmt.Errorf("cmat: matrix is not Hermitian")
	}
	// Build the 2n-by-2n real embedding, writing the row-major data
	// directly.
	n2 := 2 * n
	m := mat.NewDense(n2, n2)
	md := m.RawData()
	for i := 0; i < n; i++ {
		for j, hij := range h.data[i*n : (i+1)*n] {
			a := real(hij)
			b := imag(hij)
			md[i*n2+j] = a
			md[(i+n)*n2+j+n] = a
			md[i*n2+j+n] = -b
			md[(i+n)*n2+j] = b
		}
	}
	// Symmetrize exactly: the embedding is symmetric in exact arithmetic
	// because H is Hermitian, but round the residual asymmetry away so the
	// Jacobi routine's symmetry check passes. In place, element for
	// element what (M + Mᵀ)·0.5 computes.
	for i := 0; i < n2; i++ {
		for j := i; j < n2; j++ {
			a, b := md[i*n2+j], md[j*n2+i]
			md[i*n2+j] = (a + b) * 0.5
			md[j*n2+i] = (b + a) * 0.5
		}
	}
	rvals, rvecs, err := mat.EigenSym(m)
	if err != nil {
		return nil, nil, err
	}
	// Every eigenvalue of H appears twice, consecutively after sorting.
	vals = make([]float64, n)
	vecs = NewDense(n, n)
	for k := 0; k < n; k++ {
		vals[k] = rvals[2*k]
	}
	// Extract one complex eigenvector per doubled eigenvalue. A real
	// eigenvector (x; y) maps to x + iy; the partner (-y; x) maps to
	// i*(x + iy), so each real pair spans a single complex direction, and a
	// d-dimensional complex eigenspace appears as 2d real columns. For each
	// k, scan candidate real columns whose eigenvalue matches vals[k] and
	// accept the first whose complex image survives Gram-Schmidt against
	// the vectors already extracted in the same (near-)degenerate cluster.
	rv, vd := rvecs.RawData(), vecs.data
	v := make([]complex128, n)
	for k := 0; k < n; k++ {
		extracted := false
		for cand := 0; cand < n2 && !extracted; cand++ {
			if math.Abs(rvals[cand]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
				continue
			}
			for i := 0; i < n; i++ {
				v[i] = complex(rv[i*n2+cand], rv[(i+n)*n2+cand])
			}
			if vecNorm(v) < 1e-8 {
				continue
			}
			// Orthogonalize against previously accepted near-equal modes.
			for p := 0; p < k; p++ {
				if math.Abs(vals[p]-vals[k]) > 1e-6*(1+math.Abs(vals[k])) {
					continue
				}
				var dot complex128
				for i := 0; i < n; i++ {
					dot += cmplx.Conj(vd[i*n+p]) * v[i]
				}
				for i := 0; i < n; i++ {
					v[i] -= dot * vd[i*n+p]
				}
			}
			if nv := vecNorm(v); nv > 1e-7 {
				for i := 0; i < n; i++ {
					vd[i*n+k] = v[i] / complex(nv, 0)
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

func vecNorm(v []complex128) float64 {
	s := 0.0
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}
