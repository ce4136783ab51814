// Package estimate implements the paper's Algorithm 1 — recursive least
// squares (RLS) estimation of sensor measurements — and the free-running
// measurement predictor built on it that supplies the controller with safe
// distance and relative-velocity values for the duration of an attack.
package estimate

import (
	"errors"
	"fmt"

	"safesense/internal/mat"
)

// Errors and panic values of the per-sample methods are built once, so
// the hot path formats and boxes nothing.
var (
	errLength           = errors.New("estimate: vector length does not match the filter order")
	errTranslationShape = errors.New("estimate: translation matrix does not match the filter order")
	errLostDefiniteness = errors.New("estimate: non-positive conversion factor (P lost definiteness)")
	errOrderMismatch    = errors.New("estimate: copy between RLS filters of different order")
)

// RLS is the exponentially-weighted recursive least squares filter of
// Algorithm 1 (Haykin). State: weight vector w and inverse-correlation
// matrix P, updated per sample in O(n^2).
//
// Update and Translate run in scratch that NewRLS allocates once, and
// they perform every floating-point operation in the same order as the
// textbook allocating formulas (kept as the test oracle), so the filter
// is allocation-free per sample without changing a single output bit.
type RLS struct {
	n      int
	lambda float64
	w      []float64
	p      *mat.Dense

	// Scratch, never part of the filter state: g = P h (also the
	// Translate temporary for M w), the gain vector, and an n x n
	// matrix for the downdate and for M P.
	g, k []float64
	tmp  *mat.Dense

	// LastGamma exposes the conversion factor gamma of the most recent
	// update, useful for monitoring conditioning.
	LastGamma float64
}

// NewRLS builds an order-n RLS filter with forgetting factor lambda in
// (0, 1] and initialization P_0 = delta^-1... following the paper's
// notation P_0 = delta*I with delta positive (the paper uses delta = 1).
func NewRLS(n int, lambda, delta float64) (*RLS, error) {
	if n < 1 {
		return nil, fmt.Errorf("estimate: order must be >= 1, got %d", n)
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("estimate: forgetting factor must be in (0, 1], got %v", lambda)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("estimate: delta must be positive, got %v", delta)
	}
	r := newRLS(n, lambda)
	r.resetP(delta)
	return r, nil
}

// newRLS allocates an order-n filter's state and scratch, all zero.
func newRLS(n int, lambda float64) *RLS {
	return &RLS{
		n:      n,
		lambda: lambda,
		w:      make([]float64, n),
		p:      mat.NewDense(n, n),
		g:      make([]float64, n),
		k:      make([]float64, n),
		tmp:    mat.NewDense(n, n),
	}
}

// Order returns the filter order n.
func (r *RLS) Order() int { return r.n }

// Weights returns a copy of the current weight vector.
func (r *RLS) Weights() []float64 {
	out := make([]float64, r.n)
	copy(out, r.w)
	return out
}

// P returns a copy of the current inverse-correlation matrix.
func (r *RLS) P() *mat.Dense { return r.p.Clone() }

// Predict returns the filter output w^T h for regressor h without updating
// the state.
//
//safesense:hotpath
func (r *RLS) Predict(h []float64) float64 {
	return mat.Dot(r.w, h)
}

// Update performs one Algorithm 1 iteration with regressor h and desired
// output y. It returns the a-priori prediction w_{k-1}^T h_k and the error
// e_k = y_k - w_{k-1}^T h_k. Steps (paper lines 5–11):
//
//	g     = P_{k-1} h_k
//	gamma = lambda + h_k^T g
//	kGain = g / gamma
//	e     = y_k - w_{k-1}^T h_k
//	w_k   = w_{k-1} + kGain e
//	P_k   = (P_{k-1} - kGain g^T) / lambda
//
//safesense:hotpath
func (r *RLS) Update(h []float64, y float64) (pred, e float64, err error) {
	if len(h) != r.n {
		return 0, 0, errLength
	}
	g, kGain := r.g, r.k
	r.p.MulVecTo(g, h)
	gamma := r.lambda + mat.Dot(h, g)
	if gamma <= 0 {
		return 0, 0, errLostDefiniteness
	}
	r.LastGamma = gamma
	s := 1 / gamma
	for i, v := range g {
		kGain[i] = s * v
	}
	pred = mat.Dot(r.w, h)
	e = y - pred
	mat.Axpy(e, kGain, r.w)
	// P <- (P - kGain g^T) / lambda, symmetrized to fight round-off
	// drift. The rank-one term is rounded on its own (the explicit
	// conversion forbids a fused multiply-subtract), as when it was a
	// separate outer-product matrix.
	n, p, q := r.n, r.p.RawData(), r.tmp.RawData()
	il := 1 / r.lambda
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q[i*n+j] = (p[i*n+j] - float64(kGain[i]*g[j])) * il
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p[i*n+j] = (q[i*n+j] + q[j*n+i]) * 0.5
		}
	}
	return pred, e, nil
}

// Clone returns a deep copy of the filter state.
func (r *RLS) Clone() *RLS {
	c := newRLS(r.n, r.lambda)
	c.copyFrom(r)
	return c
}

// copyFrom overwrites r's state (weights, P, LastGamma) with src's
// without allocating. Both filters must have the same order.
//
//safesense:hotpath
func (r *RLS) copyFrom(src *RLS) {
	if r.n != src.n {
		panic(errOrderMismatch)
	}
	r.lambda = src.lambda
	copy(r.w, src.w)
	copy(r.p.RawData(), src.p.RawData())
	r.LastGamma = src.LastGamma
}

// Translate re-expresses the filter state in a new regressor basis:
// w <- M w and P <- M P M^T, where M is the (invertible) basis-change
// matrix satisfying h_old = M^T h_new. Predictions are invariant:
// w_new^T h_new = w_old^T h_old. The trend predictor uses this to shift a
// polynomial time basis one step each sample, which keeps the regressors
// perfectly conditioned regardless of how long the filter runs.
//
//safesense:hotpath
func (r *RLS) Translate(m *mat.Dense) error {
	if rows, cols := m.Dims(); rows != r.n || cols != r.n {
		return errTranslationShape
	}
	m.MulVecTo(r.g, r.w)
	copy(r.w, r.g)
	m.MulTo(r.tmp, r.p)
	r.tmp.MulTransTo(r.p, m)
	return nil
}

// Reset restores the filter to its initial state with P = delta*I.
func (r *RLS) Reset(delta float64) error {
	return r.SetState(make([]float64, r.n), delta)
}

// SetState overwrites the weights and re-initializes P = delta*I. The
// change-detection reset uses it to refit a trend while preserving the
// continuous part of the signal (the level).
func (r *RLS) SetState(w []float64, delta float64) error {
	if delta <= 0 {
		return fmt.Errorf("estimate: delta must be positive, got %v", delta)
	}
	if len(w) != r.n {
		return fmt.Errorf("estimate: weight length %d, want %d", len(w), r.n)
	}
	copy(r.w, w)
	r.resetP(delta)
	return nil
}

// keepLevel is SetState with the current weights, every one but the
// level w[0] zeroed: the trend predictor's change-detection refit,
// without the weight copies. delta was validated by NewRLS.
//
//safesense:hotpath
func (r *RLS) keepLevel(delta float64) {
	clear(r.w[1:])
	r.resetP(delta)
}

// resetP sets P = delta*I the way mat.Identity(n).Scale(delta) builds
// it, and clears LastGamma.
func (r *RLS) resetP(delta float64) {
	p := r.p.RawData()
	clear(p)
	for i := 0; i < r.n; i++ {
		p[i*r.n+i] = 1
	}
	for i := range p {
		p[i] *= delta
	}
	r.LastGamma = 0
}
