// Package music implements the root-MUSIC super-resolution frequency
// estimator. The paper extracts the FMCW radar's beat frequencies with
// MATLAB's root MUSIC; this package reproduces that pipeline from scratch:
//
//  1. estimate an order-m sample covariance of the snapshot stream with
//     forward–backward averaging,
//  2. eigendecompose it (Hermitian Jacobi via internal/cmat),
//  3. form the noise-subspace polynomial D(z) = sum over noise eigenvectors
//     of V(z) and its conjugate-reciprocal,
//  4. root it (Durand–Kerner via internal/poly) and pick the k roots inside
//     the unit circle that lie closest to it; their angles are the
//     normalized signal frequencies.
package music

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"safesense/internal/cmat"
	"safesense/internal/poly"
)

// Config parameterizes the estimator.
type Config struct {
	// Order m is the covariance dimension (subarray length). It must
	// exceed NumSignals and be at most len(signal). Typical: 8–16.
	Order int
	// NumSignals is the assumed number of complex exponentials.
	NumSignals int
}

// Estimator estimates the frequencies of complex exponentials in noise.
type Estimator struct {
	cfg Config
}

// New validates the configuration and returns an Estimator.
func New(cfg Config) (*Estimator, error) {
	if cfg.NumSignals < 1 {
		return nil, fmt.Errorf("music: NumSignals must be >= 1, got %d", cfg.NumSignals)
	}
	if cfg.Order <= cfg.NumSignals {
		return nil, fmt.Errorf("music: Order (%d) must exceed NumSignals (%d)", cfg.Order, cfg.NumSignals)
	}
	return &Estimator{cfg: cfg}, nil
}

// Frequencies estimates the normalized angular frequencies (radians/sample,
// in (-pi, pi]) of the configured number of complex exponentials present in
// x. The result is sorted ascending.
func (e *Estimator) Frequencies(x []complex128) ([]float64, error) {
	m := e.cfg.Order
	if len(x) < 2*m {
		return nil, fmt.Errorf("music: need at least %d samples for order %d, got %d", 2*m, m, len(x))
	}
	r, err := Covariance(x, m)
	if err != nil {
		return nil, err
	}
	return e.FrequenciesFromCovariance(r)
}

// FrequenciesFromCovariance runs steps 2–4 on a precomputed order-m
// covariance matrix.
func (e *Estimator) FrequenciesFromCovariance(r *cmat.Dense) ([]float64, error) {
	m := e.cfg.Order
	k := e.cfg.NumSignals
	if rr, rc := r.Dims(); rr != m || rc != m {
		return nil, fmt.Errorf("music: covariance must be %dx%d", m, m)
	}
	_, vecs, err := cmat.EigenHermitian(r)
	if err != nil {
		return nil, err
	}
	// Noise subspace: eigenvectors of the m-k smallest eigenvalues, which
	// EigenHermitian returns first (ascending order).
	// Build the root-MUSIC polynomial
	//   D(z) = sum_{noise v} V_v(z) * conj(V_v(1/conj(z))),
	// with V_v(z) = sum_i conj(v[i]) z^i, so that on the unit circle
	// D(e^{jw}) = sum_v |v^H a(w)|^2 with a(w) the steering vector — the
	// MUSIC null spectrum, vanishing exactly at the signal frequencies.
	// The coefficient at lag j is c[j] = sum_v sum_i conj(v[i]) * v[i-j];
	// D has degree 2(m-1) and c[-j] = conj(c[j]).
	coeffs := make([]complex128, 2*m-1) // index j+m-1 holds lag j in [-(m-1), m-1]
	for col := 0; col < m-k; col++ {
		v := make([]complex128, m)
		for i := 0; i < m; i++ {
			v[i] = vecs.At(i, col)
		}
		for j := -(m - 1); j <= m-1; j++ {
			var s complex128
			for i := 0; i < m; i++ {
				i2 := i - j
				if i2 < 0 || i2 >= m {
					continue
				}
				s += cmplx.Conj(v[i]) * v[i2]
			}
			coeffs[j+m-1] += s
		}
	}
	p := poly.New(coeffs...)
	if p.Degree() < 2 {
		return nil, errors.New("music: degenerate noise-subspace polynomial")
	}
	roots, err := poly.Roots(p, poly.RootsOptions{MaxIter: 3000, Tol: 1e-11})
	if err != nil {
		return nil, fmt.Errorf("music: rooting failed: %w", err)
	}
	// Roots come in conjugate-reciprocal pairs (z, 1/conj(z)). Keep roots
	// strictly inside (or on) the unit circle, then pick the k closest to
	// the circle; their angles are the frequencies.
	type cand struct {
		z    complex128
		dist float64
	}
	var cands []cand
	for _, z := range roots {
		a := cmplx.Abs(z)
		if a <= 1+1e-9 {
			cands = append(cands, cand{z, math.Abs(1 - a)})
		}
	}
	if len(cands) < k {
		return nil, fmt.Errorf("music: only %d in-circle roots for %d signals", len(cands), k)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	// De-duplicate near-coincident picks (a root exactly on the circle can
	// appear twice from the reciprocal pair).
	var freqs []float64
	for _, c := range cands {
		w := cmplx.Phase(c.z)
		dup := false
		for _, f := range freqs {
			if angDist(f, w) < 1e-4 {
				dup = true
				break
			}
		}
		if !dup {
			freqs = append(freqs, w)
			if len(freqs) == k {
				break
			}
		}
	}
	if len(freqs) < k {
		return nil, fmt.Errorf("music: found %d distinct frequencies, want %d", len(freqs), k)
	}
	sort.Float64s(freqs)
	return freqs, nil
}

func angDist(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Covariance estimates the order-m sample covariance of x using overlapping
// snapshots with forward–backward averaging, the standard conditioning step
// for root-MUSIC with coherent or short data.
func Covariance(x []complex128, m int) (*cmat.Dense, error) {
	n := len(x)
	if m < 2 {
		return nil, fmt.Errorf("music: order must be >= 2, got %d", m)
	}
	if n < m {
		return nil, fmt.Errorf("music: %d samples < order %d", n, m)
	}
	r := make([]complex128, m*m) // row-major
	count := 0
	for s := 0; s+m <= n; s++ {
		snap := x[s : s+m]
		for i := 0; i < m; i++ {
			row := r[i*m : (i+1)*m]
			for j := range row {
				row[j] += snap[i] * cmplx.Conj(snap[j])
			}
		}
		count++
	}
	inv := complex(1/float64(count), 0)
	for i := range r {
		r[i] *= inv
	}
	// Forward-backward averaging: R_fb = (R + J * conj(R) * J) / 2 with J
	// the exchange matrix.
	fb := cmat.NewDense(m, m)
	fd := fb.RawData()
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fd[i*m+j] = (r[i*m+j] + cmplx.Conj(r[(m-1-i)*m+(m-1-j)])) / 2
		}
	}
	return fb, nil
}
