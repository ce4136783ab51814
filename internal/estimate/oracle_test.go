package estimate

import (
	"errors"
	"math"
	"testing"

	"safesense/internal/mat"
	"safesense/internal/noise"
)

// Bit-identity oracle for the in-place RLS. refRLS is Algorithm 1 in
// its textbook allocating form — a fresh matrix or vector per
// intermediate, products formed with the skip-zero loop mat.Mul has
// always used — and the tests require the preallocated filter to agree
// with it bit for bit: weights, P, the returned prediction and error,
// and LastGamma.

type refRLS struct {
	n         int
	lambda    float64
	w         []float64
	p         *mat.Dense
	lastGamma float64
}

func newRefRLS(n int, lambda, delta float64) *refRLS {
	return &refRLS{n: n, lambda: lambda, w: make([]float64, n), p: mat.Identity(n).Scale(delta)}
}

// refMul is mat.Mul's product loop: out[i][j] += a[i][k] b[k][j],
// skipping zero a[i][k].
func refMul(a, b *mat.Dense) *mat.Dense {
	out := mat.NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for k := 0; k < a.Cols(); k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols(); j++ {
				out.Set(i, j, out.At(i, j)+av*b.At(k, j))
			}
		}
	}
	return out
}

func refMulVec(a *mat.Dense, x []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		s := 0.0
		for j, v := range x {
			s += a.At(i, j) * v
		}
		out[i] = s
	}
	return out
}

func (r *refRLS) update(h []float64, y float64) (pred, e float64, err error) {
	g := refMulVec(r.p, h)
	gamma := r.lambda + mat.Dot(h, g)
	if gamma <= 0 {
		return 0, 0, errors.New("non-positive conversion factor")
	}
	r.lastGamma = gamma
	kGain := make([]float64, len(g))
	for i, v := range g {
		kGain[i] = (1 / gamma) * v
	}
	pred = mat.Dot(r.w, h)
	e = y - pred
	mat.Axpy(e, kGain, r.w)
	kg := mat.NewDense(r.n, r.n)
	for i, kv := range kGain {
		for j, gv := range g {
			kg.Set(i, j, kv*gv)
		}
	}
	p := r.p.Sub(kg).Scale(1 / r.lambda)
	r.p = p.Add(p.T()).Scale(0.5)
	return pred, e, nil
}

func (r *refRLS) translate(m *mat.Dense) {
	r.w = refMulVec(m, r.w)
	r.p = refMul(refMul(m, r.p), m.T())
}

func (r *refRLS) setState(w []float64, delta float64) {
	r.w = append([]float64{}, w...)
	r.p = mat.Identity(r.n).Scale(delta)
	r.lastGamma = 0
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameState(t *testing.T, step int, got *RLS, want *refRLS) {
	t.Helper()
	for i, v := range want.w {
		if !bitsEqual(got.w[i], v) {
			t.Fatalf("step %d: w[%d] = %v, reference %v", step, i, got.w[i], v)
		}
	}
	gp, wp := got.p.RawData(), want.p
	for i := 0; i < want.n; i++ {
		for j := 0; j < want.n; j++ {
			if !bitsEqual(gp[i*want.n+j], wp.At(i, j)) {
				t.Fatalf("step %d: P[%d][%d] = %v, reference %v", step, i, j, gp[i*want.n+j], wp.At(i, j))
			}
		}
	}
	if !bitsEqual(got.LastGamma, want.lastGamma) {
		t.Fatalf("step %d: LastGamma = %v, reference %v", step, got.LastGamma, want.lastGamma)
	}
}

// TestRLSInPlaceMatchesReferenceBits drives the filter the way the trend
// predictor does — a one-step basis shift before every update — with
// random regressors, and re-initializes it mid-stream through both
// SetState and the change-detection refit.
func TestRLSInPlaceMatchesReferenceBits(t *testing.T) {
	const steps = 10000
	for _, n := range []int{2, 8} {
		for _, lambda := range []float64{0.98, 0.995} {
			const delta = 100
			got, err := NewRLS(n, lambda, delta)
			if err != nil {
				t.Fatal(err)
			}
			want := newRefRLS(n, lambda, delta)
			shift := shiftMatrix(n-1, 1.0/8)
			src := noise.NewSource(int64(n)*1000 + int64(lambda*1000))
			for k := 0; k < steps; k++ {
				switch k {
				case steps / 3:
					w := src.GaussianVec(n, 0, 10)
					if err := got.SetState(w, 5); err != nil {
						t.Fatal(err)
					}
					want.setState(w, 5)
				case 2 * steps / 3:
					got.keepLevel(delta)
					w := append([]float64{want.w[0]}, make([]float64, n-1)...)
					want.setState(w, delta)
				}
				if err := got.Translate(shift); err != nil {
					t.Fatal(err)
				}
				want.translate(shift)
				h := src.GaussianVec(n, 0, 1)
				y := 3 + 0.01*float64(k) + src.Gaussian(0, 0.5)
				gp, ge, gerr := got.Update(h, y)
				wp, we, werr := want.update(h, y)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("n=%d lambda=%v step %d: error %v, reference %v", n, lambda, k, gerr, werr)
				}
				if !bitsEqual(gp, wp) || !bitsEqual(ge, we) {
					t.Fatalf("n=%d lambda=%v step %d: (pred, e) = (%v, %v), reference (%v, %v)", n, lambda, k, gp, ge, wp, we)
				}
				requireSameState(t, k, got, want)
			}
			if tr := got.p.Trace(); math.IsNaN(tr) || math.IsInf(tr, 0) {
				t.Fatalf("n=%d lambda=%v: trace(P) = %v; the oracle compared a diverged filter", n, lambda, tr)
			}
		}
	}
}

// TestRecoveryEstimatorCopyFromMatchesClone checks the snapshot copy:
// an estimator restored with CopyFrom continues exactly as a Clone of
// the same source does, and the source is left untouched.
func TestRecoveryEstimatorCopyFromMatchesClone(t *testing.T) {
	cfg := DefaultPredictorConfig()
	src, _ := NewRecoveryEstimator(cfg)
	dst, _ := NewRecoveryEstimator(cfg)
	rng := noise.NewSource(5)
	feed := func(e *RecoveryEstimator, k int) {
		if err := e.Observe(60-0.2*float64(k)+rng.Gaussian(0, 0.5), -0.2+rng.Gaussian(0, 0.1), 20); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 50; k++ {
		feed(dst, k) // dst has its own history, which CopyFrom must erase
	}
	for k := 0; k < 120; k++ {
		feed(src, k)
	}
	clone := src.Clone()
	dst.CopyFrom(src)
	for j := 0; j < 100; j++ {
		cd, cv := clone.Predict(20)
		dd, dv := dst.Predict(20)
		if !bitsEqual(cd, dd) || !bitsEqual(cv, dv) {
			t.Fatalf("free-run step %d: CopyFrom gives (%v, %v), Clone (%v, %v)", j, dd, dv, cd, cv)
		}
	}
	if src.FreeRunning() || src.Wall() != 119 {
		t.Fatalf("source changed by the copies: free-running %v, wall %d", src.FreeRunning(), src.Wall())
	}
}
