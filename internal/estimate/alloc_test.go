package estimate

import (
	"testing"

	"safesense/internal/noise"
)

// Zero-allocation guards for the //safesense:hotpath estimator methods:
// the hotpathalloc analyzer forbids the static allocation patterns;
// these tests hold the per-sample methods to zero heap allocations.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestRLSZeroAlloc(t *testing.T) {
	for _, n := range []int{2, 8} {
		r, err := NewRLS(n, 0.98, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := noise.NewSource(1).GaussianVec(n, 0, 1)
		shift := shiftMatrix(n-1, 1.0/8)
		assertZeroAllocs(t, "RLS.Update", func() { r.Update(h, 1) })
		assertZeroAllocs(t, "RLS.Translate", func() { r.Translate(shift) })
		assertZeroAllocs(t, "RLS.Predict", func() { r.Predict(h) })
	}
}

func TestPredictorZeroAlloc(t *testing.T) {
	p, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	y := 50.0
	assertZeroAllocs(t, "Predictor.Observe", func() {
		y -= 0.2
		p.Observe(y)
	})
	assertZeroAllocs(t, "Predictor.Predict", func() { p.Predict() })
	assertZeroAllocs(t, "Predictor.SkipStep", func() { p.SkipStep() })
}

func TestRecoveryEstimatorZeroAlloc(t *testing.T) {
	cfg := DefaultPredictorConfig()
	r, err := NewRecoveryEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewRecoveryEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	takeovers := 0
	r.SetTransitionHook(func(takeover bool) {
		if takeover {
			takeovers++
		}
	})
	d := 80.0
	assertZeroAllocs(t, "RecoveryEstimator.Observe", func() {
		d -= 0.3
		r.Observe(d, -0.3, 20)
	})
	assertZeroAllocs(t, "RecoveryEstimator.CopyFrom (snapshot)", func() { snap.CopyFrom(r) })
	assertZeroAllocs(t, "RecoveryEstimator.Predict", func() { r.Predict(20) })
	assertZeroAllocs(t, "RecoveryEstimator.CopyFrom (rollback)", func() { r.CopyFrom(snap) })
	if takeovers == 0 {
		t.Fatal("the transition hook never fired")
	}
}
