package music

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"safesense/internal/cmat"
)

// Covariance as it was written with the bounds-checked cmat At/Set
// accessors and an allocating Scale. Kept verbatim as the oracle the
// raw-slice version must match bit for bit.
func oracleCovariance(x []complex128, m int) *cmat.Dense {
	n := len(x)
	r := cmat.NewDense(m, m)
	count := 0
	for s := 0; s+m <= n; s++ {
		snap := x[s : s+m]
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r.Set(i, j, r.At(i, j)+snap[i]*cmplx.Conj(snap[j]))
			}
		}
		count++
	}
	inv := complex(1/float64(count), 0)
	r = r.Scale(inv)
	fb := cmat.NewDense(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			fb.Set(i, j, (r.At(i, j)+cmplx.Conj(r.At(m-1-i, m-1-j)))/2)
		}
	}
	return fb
}

func TestCovarianceMatchesAtSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 24 + rng.Intn(256)
		m := 2 + rng.Intn(15)
		x := make([]complex128, n)
		w := (rng.Float64() - 0.5) * 2 * math.Pi
		for i := range x {
			x[i] = cmplx.Rect(math.Exp(rng.NormFloat64()), w*float64(i)) +
				complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, err := Covariance(x, m)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCovariance(x, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				g, w := got.At(i, j), want.At(i, j)
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d m=%d (%d,%d): %v, oracle %v", n, m, i, j, g, w)
				}
			}
		}
	}
}
