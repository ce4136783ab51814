package radar

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"safesense/internal/dsp/spectrum"
	"safesense/internal/dsp/window"
	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// Bit-identity oracle for the signal-level front end: sweep synthesis
// writes tone and noise into one buffer per segment, and the FFT
// extractor runs on a per-run workspace. These tests hold both to the
// allocating formulas they replaced.

// refSynthesizeSweep is SynthesizeSweep as it was written before tone and
// noise were fused: both tones first, then the up segment's noise draws,
// then the down segment's.
func refSynthesizeSweep(p Params, d, vRel float64, n int, src *noise.Source) Sweep {
	fbUp, fbDown := p.BeatFrequencies(d, vRel)
	amp := math.Sqrt(p.ReceivedPower(d, p.TargetRCS))
	tone := func(f float64) []complex128 {
		x := make([]complex128, n)
		w := 2 * math.Pi * f / p.SampleRateHz
		for i := range x {
			x[i] = cmplx.Rect(amp, w*float64(i))
		}
		return x
	}
	up, down := tone(fbUp), tone(fbDown)
	if src != nil {
		nf := p.NoiseFloor()
		up = addNoise(up, nf, src)
		down = addNoise(down, nf, src)
	}
	return Sweep{Up: up, Down: down, Fs: p.SampleRateHz}
}

// refFFTExtract is FFTExtractor.Extract as it was written: a fresh Hann
// window per segment and the package-level dominant-tone search.
func refFFTExtract(s Sweep) (float64, float64, error) {
	fbUp, err := spectrum.DominantFrequency(s.Up, window.Hann(len(s.Up)), s.Fs)
	if err != nil {
		return 0, 0, err
	}
	fbDown, err := spectrum.DominantFrequency(s.Down, window.Hann(len(s.Down)), s.Fs)
	return fbUp, fbDown, err
}

func sameSweepBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func TestSynthesizeSweepMatchesOracle(t *testing.T) {
	p := BoschLRR2()
	rng := rand.New(rand.NewSource(9))
	got, want := noise.NewSource(77), noise.NewSource(77)
	for trial := 0; trial < 400; trial++ {
		d := p.MinRangeM + rng.Float64()*(p.MaxRangeM-p.MinRangeM)
		v := (rng.Float64() - 0.5) * 60
		n := []int{32, 128, 100}[trial%3]
		var gs, ws *noise.Source
		if trial%5 != 4 { // every fifth sweep noiseless
			gs, ws = got, want
		}
		s, err := p.SynthesizeSweep(d, v, n, gs)
		if err != nil {
			t.Fatal(err)
		}
		ref := refSynthesizeSweep(p, d, v, n, ws)
		if !sameSweepBits(s.Up, ref.Up) || !sameSweepBits(s.Down, ref.Down) || s.Fs != ref.Fs {
			t.Fatalf("trial %d (d=%v, v=%v, n=%d): sweep differs from the two-pass synthesis", trial, d, v, n)
		}
	}
	// Both sources consumed the same draws in the same order.
	if a, b := got.ComplexGaussian(1), want.ComplexGaussian(1); a != b {
		t.Fatalf("noise streams diverged: next draw %v vs %v", a, b)
	}
}

func TestFrontEndFFTExtractionMatchesOracle(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 4)
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 300; k++ {
		d := sfe.Params.MinRangeM + rng.Float64()*(sfe.Params.MaxRangeM-sfe.Params.MinRangeM)
		s, _ := sfe.ObserveSweep(k, d, (rng.Float64()-0.5)*40)
		wantUp, wantDown, wantErr := refFFTExtract(s)
		for _, run := range []func(Sweep) (float64, float64, error){sfe.extract, FFTExtractor{}.Extract} {
			up, down, err := run(s)
			if (err != nil) != (wantErr != nil) ||
				math.Float64bits(up) != math.Float64bits(wantUp) ||
				math.Float64bits(down) != math.Float64bits(wantDown) {
				t.Fatalf("k=%d: (%v, %v, %v), oracle (%v, %v, %v)", k, up, down, err, wantUp, wantDown, wantErr)
			}
		}
	}
	// A segment length change resizes the workspace.
	s := Sweep{Up: make([]complex128, 64), Down: make([]complex128, 256), Fs: 1e6}
	s.Up[1], s.Down[5] = 1, 1
	up, down, err := sfe.extract(s)
	wantUp, wantDown, _ := refFFTExtract(s)
	if err != nil || up != wantUp || down != wantDown {
		t.Fatalf("mixed lengths: (%v, %v, %v), oracle (%v, %v)", up, down, err, wantUp, wantDown)
	}
	if _, _, err := sfe.extract(Sweep{Up: make([]complex128, 128), Down: make([]complex128, 128), Fs: 1e6}); err == nil {
		t.Fatal("silent sweep should fail extraction")
	}
}

// ObserveSweep hands the caller a sweep it owns: the next call must not
// write into the buffers of the previous one.
func TestObserveSweepReturnsFreshBuffers(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 6)
	first, _ := sfe.ObserveSweep(0, 80, -1)
	keepUp := append([]complex128(nil), first.Up...)
	keepDown := append([]complex128(nil), first.Down...)
	for k := 1; k < 16; k++ {
		sfe.ObserveSweep(k, 80-float64(k), -1)
	}
	if !sameSweepBits(first.Up, keepUp) || !sameSweepBits(first.Down, keepDown) {
		t.Fatal("a later ObserveSweep overwrote an earlier sweep")
	}
}

func TestFrontEndFFTExtractZeroAlloc(t *testing.T) {
	sfe := newSFE(t, prbs.NewFixedSchedule(), FFTExtractor{}, 8)
	s, _ := sfe.ObserveSweep(0, 60, 2)
	var sink float64
	if _, _, err := sfe.extract(s); err != nil { // sizes the workspace
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		up, down, _ := sfe.extract(s)
		sink += up + down
	}); avg != 0 {
		t.Errorf("front-end FFT extraction: %v allocs/op, want 0", avg)
	}
	_ = sink
}
