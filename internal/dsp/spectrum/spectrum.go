// Package spectrum implements periodogram power spectral density estimation
// and peak picking with parabolic interpolation — the FFT-based
// beat-frequency extractor that the radar ablation compares against
// root-MUSIC.
package spectrum

import (
	"errors"
	"math"
	"sort"

	"safesense/internal/dsp/fft"
	"safesense/internal/dsp/window"
)

// errNoPeaks is the one failure of the peak pickers: the PSD has no
// local maximum above zero. It is built once, so the allocation-free
// dominant-tone path can return it.
var errNoPeaks = errors.New("spectrum: no peaks found")

// errWindowLength is the panic value for a signal whose length differs
// from the workspace's window.
var errWindowLength = errors.New("spectrum: signal and window lengths differ")

// Workspace is the reusable scratch of the windowed periodogram for one
// signal length: the window and its power normalization, computed once,
// plus the transform and PSD buffers. Periodogram and DominantFrequency
// run on a throwaway Workspace; a caller that analyzes many equal-length
// signals (the radar's FFT beat extractor, once per sweep segment) keeps
// one and reuses it. A Workspace is not safe for concurrent use.
type Workspace struct {
	w   []float64
	nu  float64 // N·U, the periodogram's normalization
	buf []complex128
	psd []float64
}

// NewWorkspace returns the workspace for len(w)-sample signals tapered
// by the window w, which it keeps (the caller must not modify it).
func NewWorkspace(w []float64) *Workspace {
	n := len(w)
	u := 0.0
	for _, v := range w {
		u += v * v
	}
	u /= float64(n)
	return &Workspace{
		w:   w,
		nu:  float64(n) * u,
		buf: make([]complex128, n),
		psd: make([]float64, n),
	}
}

// Len returns the signal length the workspace is sized for.
func (ws *Workspace) Len() int { return len(ws.w) }

// periodogram fills the workspace's PSD buffer with the windowed
// periodogram of x and returns it; the next call overwrites it. It panics
// if len(x) differs from the window length.
//
//safesense:hotpath
func (ws *Workspace) periodogram(x []complex128) []float64 {
	if len(x) != len(ws.w) {
		panic(errWindowLength)
	}
	for i, v := range x {
		ws.buf[i] = v * complex(ws.w[i], 0)
	}
	fft.ForwardInPlace(ws.buf)
	for i, v := range ws.buf {
		ws.psd[i] = (real(v)*real(v) + imag(v)*imag(v)) / ws.nu
	}
	return ws.psd
}

// DominantFrequency returns the interpolated frequency of the strongest
// spectral peak of x, sampled at fs Hz. The peak is FindPeaks(psd, freqs,
// 1, 1)'s pick — the strongest bin that is a local maximum with positive
// power, the lowest such bin among equals — found in one pass and refined
// by the same interpolation. It allocates nothing for power-of-two
// lengths.
//
//safesense:hotpath
func (ws *Workspace) DominantFrequency(x []complex128, fs float64) (float64, error) {
	psd := ws.periodogram(x)
	n := len(psd)
	best := -1
	for i, p := range psd {
		// Only a strictly stronger bin can take over, so test that first
		// and leave the neighbor checks to the few that pass.
		if (best < 0 || p > psd[best]) && localMax(psd, i) {
			best = i
		}
	}
	if best < 0 {
		return 0, errNoPeaks
	}
	// FreqBins' spacing freqs[1]-freqs[0]; 0 for a one-bin spectrum.
	df := fft.BinFreq(1, n, fs) - fft.BinFreq(0, n, fs)
	return interpolate(psd, best, fft.BinFreq(best, n, fs), df), nil
}

// Periodogram returns the windowed periodogram |FFT(w.x)|^2 / (N*U) of the
// signal and the frequency of each bin for sample rate fs. U is the window
// power normalization so white noise yields a flat density.
func Periodogram(x []complex128, w []float64, fs float64) (psd, freqs []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	if w == nil {
		w = window.Rect(n)
	}
	return NewWorkspace(w).periodogram(x), fft.FreqBins(n, fs)
}

// Peak is a located spectral peak.
type Peak struct {
	// Freq is the interpolated peak frequency in Hz.
	Freq float64
	// Power is the peak PSD value.
	Power float64
	// Bin is the integer bin index of the maximum.
	Bin int
}

// FindPeaks locates up to k local maxima of the PSD, strongest first (the
// lower bin first among equal powers), and refines each frequency by
// parabolic interpolation over log power. Peaks closer than minSepBins
// bins to an already accepted stronger peak are suppressed.
func FindPeaks(psd, freqs []float64, k, minSepBins int) ([]Peak, error) {
	n := len(psd)
	if n != len(freqs) {
		return nil, errors.New("spectrum: psd/freqs length mismatch")
	}
	if k <= 0 {
		return nil, errors.New("spectrum: k must be positive")
	}
	type cand struct {
		bin int
		p   float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		if localMax(psd, i) {
			cands = append(cands, cand{i, psd[i]})
		}
	}
	// Rank equal powers by bin so the unstable sort cannot reorder them.
	sort.Slice(cands, func(a, b int) bool {
		pa, pb := cands[a].p, cands[b].p
		return pa > pb || (!(pa < pb) && cands[a].bin < cands[b].bin)
	})
	// Uniform spacing: df from adjacent bins (watch the wrap at n/2).
	df := 0.0
	if n > 1 {
		df = freqs[1] - freqs[0]
	}
	var out []Peak
	for _, c := range cands {
		if len(out) == k {
			break
		}
		ok := true
		for _, p := range out {
			if binDist(c.bin, p.Bin, n) < minSepBins {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, Peak{
			Freq:  interpolate(psd, c.bin, freqs[c.bin], df),
			Power: c.p,
			Bin:   c.bin,
		})
	}
	if len(out) == 0 {
		return nil, errNoPeaks
	}
	return out, nil
}

// localMax reports whether bin i is a peak candidate: positive power and
// at least that of both (circular) neighbors.
func localMax(psd []float64, i int) bool {
	prev, next := i-1, i+1
	if prev < 0 {
		prev = len(psd) - 1
	}
	if next == len(psd) {
		next = 0
	}
	return psd[i] >= psd[prev] && psd[i] >= psd[next] && psd[i] > 0
}

func binDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// interpolate refines the peak at bin, whose frequency is f, with a
// parabolic fit over log power on the three bins around it, then converts
// the fractional bin to frequency with the uniform bin spacing df.
func interpolate(psd []float64, bin int, f, df float64) float64 {
	n := len(psd)
	im := (bin - 1 + n) % n
	ip := (bin + 1) % n
	// Exact-bin tones leave only FFT round-off in the neighbors; parabolic
	// interpolation over those junk values adds noise, so skip it.
	if psd[im] < psd[bin]*1e-9 && psd[ip] < psd[bin]*1e-9 {
		return f
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
	return f + delta*df
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return -745 // log of smallest positive double
	}
	return math.Log(x)
}

// DominantFrequency returns the interpolated frequency of the strongest
// peak of the windowed periodogram of x (rectangular when w is nil), on a
// throwaway Workspace.
func DominantFrequency(x []complex128, w []float64, fs float64) (float64, error) {
	if w == nil {
		w = window.Rect(len(x))
	}
	return NewWorkspace(w).DominantFrequency(x, fs)
}

// TotalPower integrates the PSD over all bins (Parseval-consistent power
// estimate in signal units).
func TotalPower(psd []float64) float64 {
	s := 0.0
	for _, v := range psd {
		s += v
	}
	if len(psd) == 0 {
		return 0
	}
	return s / float64(len(psd))
}
