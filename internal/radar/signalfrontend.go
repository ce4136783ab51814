package radar

import (
	"errors"
	"math"

	"safesense/internal/noise"
	"safesense/internal/prbs"
)

// SweepCorruptor is implemented by attacks that operate on the physical
// channel: they transform the dechirped sweep the receiver digitizes, the
// way a jammer's energy or a spoofer's counterfeit reflection would.
type SweepCorruptor interface {
	// CorruptSweep transforms the receiver's sweep at step k. challenge
	// reports whether the radar suppressed its own transmission.
	CorruptSweep(k int, s Sweep, challenge bool) Sweep
}

// SignalFrontEnd is the high-fidelity measurement pipeline: it synthesizes
// the dechirped baseband sweep for the true target (or thermal noise at a
// challenge instant), lets a SweepCorruptor transform it, and extracts the
// measurement with a configurable beat estimator — the chain the paper
// implements with the MATLAB Phased Array Toolbox plus root MUSIC.
type SignalFrontEnd struct {
	Params   Params
	Schedule prbs.Schedule
	// Extractor recovers the beat frequencies (FFTExtractor or
	// MUSICExtractor).
	Extractor BeatExtractor
	// Samples per sweep segment.
	Samples int

	src *noise.Source
	// fft is the run's FFT-extractor workspace, used when Extractor is
	// FFTExtractor. It lives here, not in the extractor value, because
	// one Extractor may be shared by concurrent runs.
	fft fftWorkspace
}

// NewSignalFrontEnd validates and builds the signal-level front end.
func NewSignalFrontEnd(p Params, sched prbs.Schedule, ext BeatExtractor, samples int, src *noise.Source) (*SignalFrontEnd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radar: nil challenge schedule")
	}
	if ext == nil {
		return nil, errors.New("radar: nil beat extractor")
	}
	if samples < 32 {
		return nil, errors.New("radar: need at least 32 samples per segment")
	}
	if src == nil {
		return nil, errors.New("radar: nil noise source")
	}
	return &SignalFrontEnd{Params: p, Schedule: sched, Extractor: ext, Samples: samples, src: src}, nil
}

// ObserveSweep produces the receiver's raw sweep at step k for the true
// target, before any attack: thermal noise only at challenge instants or
// out of range, the dechirped target return otherwise.
func (f *SignalFrontEnd) ObserveSweep(k int, dTrue, vRelTrue float64) (s Sweep, challenge bool) {
	challenge = f.Schedule.Challenge(k)
	if challenge || !f.Params.InRange(dTrue) {
		return f.Params.SynthesizeSilence(f.Samples, f.src), challenge
	}
	sw, err := f.Params.SynthesizeSweep(dTrue, vRelTrue, f.Samples, f.src)
	if err != nil {
		// Validated parameters and an in-range target cannot fail;
		// degrade to silence rather than panic.
		return f.Params.SynthesizeSilence(f.Samples, f.src), challenge
	}
	return sw, challenge
}

// Measure runs beat extraction on a (possibly corrupted) sweep and returns
// the step measurement. The receiver reports zeros when the sweep power
// sits at the noise floor (nothing detected — the expected challenge
// response), and clamps physically impossible extractions to the
// receiver's unambiguous limits, as the anti-aliasing chain of a real
// FMCW receiver would.
func (f *SignalFrontEnd) Measure(k int, s Sweep, challenge bool) Measurement {
	m := Measurement{K: k, Challenge: challenge, Power: s.Power()}
	if m.Power <= f.ZeroThreshold() {
		return m // quiet channel: zero output
	}
	fbUp, fbDown, err := f.extract(s)
	if err != nil {
		// Extraction failure on a hot channel: report saturated garbage
		// (the controller-facing equivalent of a blinded receiver).
		m.Distance = f.Params.MaxRangeM
		m.RelVelocity = 0
		return m
	}
	d, v := f.Params.FromBeats(fbUp, fbDown)
	maxD := f.Params.MaxRangeM * 1.2
	m.Distance = clampF(d, 0, maxD)
	m.RelVelocity = clampF(v, -60, 60)
	return m
}

// extract runs the configured beat extractor, the FFT one on the front
// end's own workspace.
func (f *SignalFrontEnd) extract(s Sweep) (float64, float64, error) {
	if _, ok := f.Extractor.(FFTExtractor); ok {
		return f.fft.extract(s)
	}
	return f.Extractor.Extract(s)
}

// Observe is the convenience composition for attack-free operation.
func (f *SignalFrontEnd) Observe(k int, dTrue, vRelTrue float64) Measurement {
	s, challenge := f.ObserveSweep(k, dTrue, vRelTrue)
	return f.Measure(k, s, challenge)
}

// ZeroThreshold returns the detector's quiet-channel power threshold.
func (f *SignalFrontEnd) ZeroThreshold() float64 {
	return 10 * f.Params.NoiseFloor()
}

func clampF(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// ShiftSweep returns a copy of the sweep with both segments shifted in
// frequency by df Hz — the effect of injecting extra round-trip delay
// tau into the reflection, since an FMCW dechirper maps delay to beat
// frequency by df = tau * Bs / Ts.
func ShiftSweep(s Sweep, df float64) Sweep {
	out := Sweep{
		Up:   shiftTone(s.Up, df, s.Fs),
		Down: shiftTone(s.Down, df, s.Fs),
		Fs:   s.Fs,
	}
	return out
}

func shiftTone(x []complex128, df, fs float64) []complex128 {
	out := make([]complex128, len(x))
	w := 2 * math.Pi * df / fs
	for i, v := range x {
		s, c := math.Sincos(w * float64(i))
		out[i] = v * complex(c, s)
	}
	return out
}

// AddNoiseSweep returns a copy of the sweep with circularly-symmetric
// Gaussian noise of the given per-sample power added to both segments —
// the effect of broadband jamming energy reaching the receiver.
func AddNoiseSweep(s Sweep, power float64, src *noise.Source) Sweep {
	return Sweep{
		Up:   addNoise(s.Up, power, src),
		Down: addNoise(s.Down, power, src),
		Fs:   s.Fs,
	}
}

// AddToneSweep returns a copy of the sweep with a complex tone of the given
// frequency and power added to both segments — a spoofer's counterfeit
// return landing in the dechirped band.
func AddToneSweep(s Sweep, freq, power float64) Sweep {
	amp := math.Sqrt(power)
	n := len(s.Up)
	t := noisyTone(n, freq, s.Fs, amp, 0, nil)
	add := func(x []complex128) []complex128 {
		out := make([]complex128, len(x))
		for i, v := range x {
			out[i] = v + t[i%n]
		}
		return out
	}
	return Sweep{Up: add(s.Up), Down: add(s.Down), Fs: s.Fs}
}
