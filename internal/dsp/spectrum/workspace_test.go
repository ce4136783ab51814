package spectrum

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"safesense/internal/dsp/fft"
	"safesense/internal/dsp/window"
	"safesense/internal/noise"
)

// The dominant-tone path as it was before the Workspace: an allocating
// periodogram (window.Apply + fft.Forward + FreqBins) and FindPeaks' full
// candidate sort. Kept verbatim as the oracle the one-pass argmax must
// match bit for bit, with one change: the candidates (collected in bin
// order) are sorted stably. Where the strongest candidate is unique both
// sorts put it first; where several tie exactly, the old sort.Slice
// picked whichever its unstable order left in front, and the stable sort
// pins the documented rule, the lowest bin. A shifted impulse under a
// rectangular window is such an input: bins 0 and n/2 both come out at
// exactly |x|² (their twiddles are ±1), and the old pick was bin n/2.

func oraclePeriodogram(x []complex128, w []float64, fs float64) (psd, freqs []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	if w == nil {
		w = window.Rect(n)
	}
	u := 0.0
	for _, v := range w {
		u += v * v
	}
	u /= float64(n)
	spec := fft.Forward(window.Apply(x, w))
	psd = make([]float64, n)
	for i, v := range spec {
		psd[i] = (real(v)*real(v) + imag(v)*imag(v)) / (float64(n) * u)
	}
	return psd, fft.FreqBins(n, fs)
}

func oracleDominant(x []complex128, w []float64, fs float64) (float64, error) {
	psd, freqs := oraclePeriodogram(x, w, fs)
	n := len(psd)
	type cand struct {
		bin int
		p   float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		prev := psd[(i-1+n)%n]
		next := psd[(i+1)%n]
		if psd[i] >= prev && psd[i] >= next && psd[i] > 0 {
			cands = append(cands, cand{i, psd[i]})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].p > cands[b].p })
	if len(cands) == 0 {
		return 0, errors.New("spectrum: no peaks found")
	}
	bin := cands[0].bin
	im := (bin - 1 + n) % n
	ip := (bin + 1) % n
	if psd[im] < psd[bin]*1e-9 && psd[ip] < psd[bin]*1e-9 {
		return freqs[bin], nil
	}
	ym := safeLog(psd[im])
	y0 := safeLog(psd[bin])
	yp := safeLog(psd[ip])
	den := ym - 2*y0 + yp
	delta := 0.0
	if den != 0 {
		delta = 0.5 * (ym - yp) / den
		if delta > 0.5 {
			delta = 0.5
		} else if delta < -0.5 {
			delta = -0.5
		}
	}
	df := freqs[1] - freqs[0]
	if len(freqs) > 1 {
		return freqs[bin] + delta*df, nil
	}
	return freqs[bin], nil
}

// randomSweep is one tone-plus-noise segment: a random frequency anywhere
// in the band (on-bin one time in eight), random amplitude and SNR, and
// now and then noise only or a noiseless tone.
func randomSweep(rng *rand.Rand, src *noise.Source, n int, fs float64) []complex128 {
	f := (rng.Float64() - 0.5) * fs
	if rng.Intn(8) == 0 {
		f = float64(rng.Intn(n)-n/2) * fs / float64(n)
	}
	amp := math.Exp(rng.NormFloat64() * 3)
	noisePower := amp * amp * math.Pow(10, -(rng.Float64()*40-10)/10)
	switch rng.Intn(16) {
	case 0:
		amp = 0
	case 1:
		noisePower = 0
	}
	x := make([]complex128, n)
	w := 2 * math.Pi * f / fs
	for i := range x {
		x[i] = cmplx.Rect(amp, w*float64(i))
		if noisePower > 0 {
			x[i] += src.ComplexGaussian(noisePower)
		}
	}
	return x
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestWorkspaceDominantMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := noise.NewSource(23)
	const fs = 1.5e6
	cases := []struct {
		n, sweeps int
	}{
		{128, 7000},
		{1024, 3000},
		{100, 500}, // Bluestein
	}
	total := 0
	for _, c := range cases {
		hann := NewWorkspace(window.Hann(c.n))
		rect := NewWorkspace(window.Rect(c.n))
		for i := 0; i < c.sweeps; i++ {
			x := randomSweep(rng, src, c.n, fs)
			ws, w := hann, window.Hann(c.n)
			if i%4 == 3 {
				ws, w = rect, nil
			}
			want, wantErr := oracleDominant(x, w, fs)
			got, err := ws.DominantFrequency(x, fs)
			if (err != nil) != (wantErr != nil) || !sameBits(got, want) {
				t.Fatalf("n=%d sweep %d: workspace (%v, %v), oracle (%v, %v)", c.n, i, got, err, want, wantErr)
			}
			// The package-level entry point runs the same code on a
			// throwaway workspace.
			if got2, _ := DominantFrequency(x, w, fs); !sameBits(got2, want) {
				t.Fatalf("n=%d sweep %d: DominantFrequency %v, oracle %v", c.n, i, got2, want)
			}
			if i%64 == 0 {
				psd, freqs := Periodogram(x, w, fs)
				wpsd, wfreqs := oraclePeriodogram(x, w, fs)
				for k := range psd {
					if !sameBits(psd[k], wpsd[k]) || !sameBits(freqs[k], wfreqs[k]) {
						t.Fatalf("n=%d sweep %d bin %d: Periodogram (%v, %v), oracle (%v, %v)",
							c.n, i, k, psd[k], freqs[k], wpsd[k], wfreqs[k])
					}
				}
			}
			total++
		}
	}
	if total < 10000 {
		t.Fatalf("only %d sweeps compared", total)
	}
}

// Flat and sparse spectra put equal powers next to each other, where
// the local-maximum test's >= decides which bins are candidates, and
// exact ties between candidates, where the lowest bin wins.
func TestWorkspaceDominantStructuredSignals(t *testing.T) {
	const n, fs = 64, 1000.0
	impulse := make([]complex128, n)
	impulse[0] = 1
	shifted := make([]complex128, n)
	shifted[5] = 2 - 1i
	constant := make([]complex128, n)
	alternating := make([]complex128, n)
	for i := range constant {
		constant[i] = 1
		alternating[i] = complex(float64(1-2*(i%2)), 0)
	}
	for name, x := range map[string][]complex128{
		"impulse": impulse, "shifted": shifted, "constant": constant, "alternating": alternating,
	} {
		for _, w := range [][]float64{nil, window.Hann(n)} {
			want, wantErr := oracleDominant(x, w, fs)
			got, err := DominantFrequency(x, w, fs)
			if (err != nil) != (wantErr != nil) || !sameBits(got, want) {
				t.Fatalf("%s (hann %v): (%v, %v), oracle (%v, %v)", name, w != nil, got, err, want, wantErr)
			}
		}
	}
}

func TestWorkspaceNoPeak(t *testing.T) {
	ws := NewWorkspace(window.Hann(64))
	if _, err := ws.DominantFrequency(make([]complex128, 64), 1); err == nil {
		t.Fatal("silent signal should have no peak")
	}
	if _, err := DominantFrequency(nil, nil, 1); err == nil {
		t.Fatal("empty signal should have no peak")
	}
}

// A one-sample signal has one bin and no spacing; the pick is bin 0.
func TestDominantFrequencyOneSample(t *testing.T) {
	got, err := DominantFrequency([]complex128{1}, nil, 10)
	if err != nil || got != 0 {
		t.Fatalf("DominantFrequency of one sample = (%v, %v), want (0, nil)", got, err)
	}
}

func TestWorkspaceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic for a signal longer than the window")
		}
	}()
	NewWorkspace(window.Hann(8)).DominantFrequency(make([]complex128, 16), 1)
}

// Equal peaks resolve to the lowest bin, in the one-pass pick and in
// FindPeaks alike. x = δ[i] − δ[i−n/2] has |X[k]|² = 4 on every odd bin
// and 0 on every even one, exactly (the transform only ever multiplies
// twiddles by zero), so all n/2 odd bins tie.
func TestEqualPeaksPickLowestBin(t *testing.T) {
	for _, n := range []int{4, 64, 1024} {
		x := make([]complex128, n)
		x[0], x[n/2] = 1, -1
		const fs = 1000.0
		psd, freqs := Periodogram(x, nil, fs)
		for k := 3; k < n; k += 2 {
			if !sameBits(psd[k], psd[1]) {
				t.Fatalf("n=%d: bins 1 and %d differ (%v vs %v); the tie does not hold", n, k, psd[1], psd[k])
			}
		}
		got, err := DominantFrequency(x, nil, fs)
		if err != nil || !sameBits(got, freqs[1]) {
			t.Fatalf("n=%d: DominantFrequency = (%v, %v), want bin 1 at %v", n, got, err, freqs[1])
		}
		peaks, err := FindPeaks(psd, freqs, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 3, 5} {
			if i < len(peaks) && peaks[i].Bin != want {
				t.Fatalf("n=%d: FindPeaks bins %v, want ascending odd bins from 1", n, peaks)
			}
		}
	}
}

func TestWorkspaceDominantZeroAlloc(t *testing.T) {
	src := noise.NewSource(5)
	for _, n := range []int{128, 1024} {
		ws := NewWorkspace(window.Hann(n))
		x := src.AddAWGN(tone(n, 211, 1000), 10)
		var sink float64
		if avg := testing.AllocsPerRun(100, func() {
			f, _ := ws.DominantFrequency(x, 1000)
			sink += f
		}); avg != 0 {
			t.Errorf("n=%d: Workspace.DominantFrequency %v allocs/op, want 0", n, avg)
		}
		_ = sink
	}
}
