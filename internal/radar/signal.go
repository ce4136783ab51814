package radar

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"safesense/internal/dsp/music"
	"safesense/internal/dsp/spectrum"
	"safesense/internal/dsp/window"
	"safesense/internal/noise"
)

// Sweep holds one triangular-FMCW measurement cycle of dechirped complex
// baseband samples: the up-slope segment carries a tone at fb+ and the
// down-slope segment a tone at fb-.
type Sweep struct {
	Up   []complex128
	Down []complex128
	// Fs is the sample rate the segments were synthesized at.
	Fs float64
}

// SynthesizeSweep produces the dechirped receiver output for a point target
// at distance d with range rate vRel. Each segment has n samples; thermal
// noise at the link-budget SNR is added when src is non-nil. This is the
// substitute for the MATLAB Phased Array System Toolbox simulation: the
// toolbox ultimately hands the estimator exactly this pair of noisy tones.
func (p Params) SynthesizeSweep(d, vRel float64, n int, src *noise.Source) (Sweep, error) {
	if n < 2 {
		return Sweep{}, fmt.Errorf("radar: need at least 2 samples per segment, got %d", n)
	}
	if d <= 0 {
		return Sweep{}, errors.New("radar: non-positive target distance")
	}
	fbUp, fbDown := p.BeatFrequencies(d, vRel)
	amp := math.Sqrt(p.ReceivedPower(d, p.TargetRCS))
	nf := 0.0
	if src != nil {
		nf = p.NoiseFloor()
	}
	// The up segment takes its noise draws before the down segment.
	up := noisyTone(n, fbUp, p.SampleRateHz, amp, nf, src)
	down := noisyTone(n, fbDown, p.SampleRateHz, amp, nf, src)
	return Sweep{Up: up, Down: down, Fs: p.SampleRateHz}, nil
}

// SynthesizeSilence produces the receiver output during a CRA challenge
// instant when nothing was transmitted: thermal noise only.
func (p Params) SynthesizeSilence(n int, src *noise.Source) Sweep {
	nf := p.NoiseFloor()
	return Sweep{
		Up:   src.ComplexNoiseVec(n, nf),
		Down: src.ComplexNoiseVec(n, nf),
		Fs:   p.SampleRateHz,
	}
}

// noisyTone returns n samples of the complex tone amp·e^{j2πfi/fs} with,
// when src is non-nil, circularly-symmetric Gaussian noise of the given
// power added to each sample in order — tone and noise written into one
// buffer.
func noisyTone(n int, f, fs, amp, noisePower float64, src *noise.Source) []complex128 {
	x := make([]complex128, n)
	w := 2 * math.Pi * f / fs
	for i := range x {
		x[i] = cmplx.Rect(amp, w*float64(i))
		if src != nil {
			x[i] += src.ComplexGaussian(noisePower)
		}
	}
	return x
}

func addNoise(x []complex128, noisePower float64, src *noise.Source) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v + src.ComplexGaussian(noisePower)
	}
	return out
}

// Power returns the average received power across both segments, the
// quantity the CRA detector thresholds at challenge instants.
func (s Sweep) Power() float64 {
	return (noise.AveragePower(s.Up) + noise.AveragePower(s.Down)) / 2
}

// BeatExtractor recovers the two beat frequencies from a sweep.
type BeatExtractor interface {
	// Extract returns the estimated (fb+, fb-) in Hz.
	Extract(s Sweep) (fbUp, fbDown float64, err error)
	// Name identifies the extractor in benchmark output.
	Name() string
}

// FFTExtractor estimates each segment's beat frequency from the dominant
// peak of a Hann-windowed periodogram with parabolic interpolation.
type FFTExtractor struct{}

// Name implements BeatExtractor.
func (FFTExtractor) Name() string { return "fft" }

// Extract implements BeatExtractor on a throwaway workspace; a
// SignalFrontEnd runs the same code on the workspace it keeps for the run.
func (FFTExtractor) Extract(s Sweep) (float64, float64, error) {
	var ws fftWorkspace
	return ws.extract(s)
}

// fftWorkspace is the FFT extractor's scratch: the Hann-windowed
// periodogram workspace for the segment length last seen. The zero value
// is ready to use.
type fftWorkspace struct {
	ps *spectrum.Workspace
}

// segment returns the periodogram workspace for n-sample segments,
// rebuilding it only when the length changes.
func (w *fftWorkspace) segment(n int) *spectrum.Workspace {
	if w.ps == nil || w.ps.Len() != n {
		w.ps = spectrum.NewWorkspace(window.Hann(n))
	}
	return w.ps
}

// extract is FFTExtractor.Extract on this workspace. Once the workspace
// is sized it allocates nothing (power-of-two segments) unless a segment
// has no spectral peak.
//
//safesense:hotpath
func (w *fftWorkspace) extract(s Sweep) (float64, float64, error) {
	fbUp, err := w.segment(len(s.Up)).DominantFrequency(s.Up, s.Fs)
	if err != nil {
		//safesense:allow hotpathalloc error path: wrapping runs only when a segment has no peak
		return 0, 0, segmentError("up", err)
	}
	fbDown, err := w.segment(len(s.Down)).DominantFrequency(s.Down, s.Fs)
	if err != nil {
		//safesense:allow hotpathalloc error path: wrapping runs only when a segment has no peak
		return 0, 0, segmentError("down", err)
	}
	return fbUp, fbDown, nil
}

// segmentError names the sweep segment whose extraction failed.
func segmentError(segment string, err error) error {
	return fmt.Errorf("radar: %s-segment: %w", segment, err)
}

// MUSICExtractor estimates each segment's beat frequency with root-MUSIC,
// the paper's choice ("The root MUSIC algorithm is used to extract beat
// frequencies from radar data").
type MUSICExtractor struct {
	// Order is the covariance order (default 12).
	Order int
}

// Name implements BeatExtractor.
func (MUSICExtractor) Name() string { return "root-music" }

// Extract implements BeatExtractor.
func (m MUSICExtractor) Extract(s Sweep) (float64, float64, error) {
	order := m.Order
	if order == 0 {
		order = 12
	}
	est, err := music.New(music.Config{Order: order, NumSignals: 1})
	if err != nil {
		return 0, 0, err
	}
	fbUp, err := segmentFreq(est, s.Up, s.Fs)
	if err != nil {
		return 0, 0, segmentError("up", err)
	}
	fbDown, err := segmentFreq(est, s.Down, s.Fs)
	if err != nil {
		return 0, 0, segmentError("down", err)
	}
	return fbUp, fbDown, nil
}

func segmentFreq(est *music.Estimator, x []complex128, fs float64) (float64, error) {
	ws, err := est.Frequencies(x)
	if err != nil {
		return 0, err
	}
	// Normalized rad/sample -> Hz. Beat tones are positive by
	// construction; a negative angle means the tone aliased past pi.
	f := ws[0] * fs / (2 * math.Pi)
	if f < 0 {
		f += fs
	}
	return f, nil
}

// MeasureSweep runs a full signal-level measurement: synthesize the
// dechirped sweep for the true target, extract beat frequencies with the
// given extractor, and convert to distance and range rate via Eqns 7–8.
func (p Params) MeasureSweep(dTrue, vRelTrue float64, n int, ext BeatExtractor, src *noise.Source) (d, vRel float64, err error) {
	s, err := p.SynthesizeSweep(dTrue, vRelTrue, n, src)
	if err != nil {
		return 0, 0, err
	}
	fbUp, fbDown, err := ext.Extract(s)
	if err != nil {
		return 0, 0, err
	}
	d, vRel = p.FromBeats(fbUp, fbDown)
	return d, vRel, nil
}
