package radar

import (
	"math"
	"testing"

	"safesense/internal/noise"
	"safesense/internal/prbs"
	"safesense/internal/units"
)

// Bit-identity oracle for the closed-form front end. FrontEnd evaluates
// the distance-independent link-budget factors once at construction;
// these tests hold its per-step output to the formulas it replaced,
// evaluated from scratch at every step, bit for bit.

// refReceivedPower is Eqn 9 as it was written before the range
// equation was split into a cached budget and a per-distance
// evaluation.
func refReceivedPower(p Params, d, sigma float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	g := units.DBToLinear(p.AntennaGainDBi)
	l := units.DBToLinear(p.SystemLossDB)
	num := p.TransmitPowerW * g * g * p.WavelengthM * p.WavelengthM * sigma
	den := math.Pow(4*math.Pi, 3) * math.Pow(d, 4) * l
	return num / den
}

// Stds returns the distance and velocity noise standard deviations at
// distance d, recomputing the whole link budget: the reference the
// front end's cached path is checked against.
func (c ClosedFormModel) Stds(p Params, d float64) (stdD, stdV float64) {
	refSNR := refReceivedPower(p, c.RefDist, p.TargetRCS) / p.NoiseFloor()
	snr := refReceivedPower(p, d, p.TargetRCS) / p.NoiseFloor()
	scale := math.Sqrt(refSNR / snr)
	return c.DistStdRef * scale, c.VelStdRef * scale
}

// refNoiseDraw replays the front end's noise-floor power draw.
func refNoiseDraw(src *noise.Source, nf float64) float64 {
	v := src.Gaussian(nf, nf/4)
	if v < 0 {
		v = 0
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestReceivedPowerMatchesEqn9Bits(t *testing.T) {
	p := BoschLRR2()
	rng := noise.NewSource(7)
	for i := 0; i < 10000; i++ {
		d := rng.Uniform(p.MinRangeM, p.MaxRangeM)
		sigma := rng.Uniform(0.1, 100)
		if got, want := p.ReceivedPower(d, sigma), refReceivedPower(p, d, sigma); !sameBits(got, want) {
			t.Fatalf("ReceivedPower(%v, %v) = %v, want %v", d, sigma, got, want)
		}
	}
	for _, d := range []float64{0, -1} {
		if !math.IsInf(p.ReceivedPower(d, p.TargetRCS), 1) {
			t.Fatalf("ReceivedPower(%v) is not +Inf", d)
		}
	}
}

func TestFrontEndObserveMatchesReferenceBits(t *testing.T) {
	p := BoschLRR2()
	const seed = 11
	// Every fifth step is a challenge, so the noise-floor draws are
	// checked too.
	var challenges []int
	for k := 0; k < 10000; k += 5 {
		challenges = append(challenges, k)
	}
	sched := prbs.NewFixedSchedule(challenges...)
	fe, err := NewFrontEnd(p, sched, noise.NewSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref := noise.NewSource(seed) // replays fe's draws
	m := DefaultClosedFormModel()
	nf := p.NoiseFloor()
	dists := noise.NewSource(3)
	for k := 0; k < 10000; k++ {
		d := dists.Uniform(p.MinRangeM, p.MaxRangeM)
		switch {
		case k == 1 || k == 2:
			d = []float64{p.MinRangeM, p.MaxRangeM}[k-1]
		case k%7 == 3:
			d = p.MaxRangeM + d // no return
		}
		v := dists.Uniform(-20, 20)
		got := fe.Observe(k, d, v)
		var want Measurement
		switch {
		case sched.Challenge(k):
			want = Measurement{K: k, Challenge: true, Power: refNoiseDraw(ref, nf)}
		case d > p.MaxRangeM:
			want = Measurement{K: k, Distance: p.MaxRangeM, Power: refNoiseDraw(ref, nf)}
		default:
			stdD, stdV := m.Stds(p, d)
			want = Measurement{
				K:           k,
				Distance:    ref.Gaussian(d, stdD),
				RelVelocity: ref.Gaussian(v, stdV),
				Power:       refReceivedPower(p, d, p.TargetRCS),
			}
		}
		if got.K != want.K || got.Challenge != want.Challenge || !sameBits(got.Distance, want.Distance) ||
			!sameBits(got.RelVelocity, want.RelVelocity) || !sameBits(got.Power, want.Power) {
			t.Fatalf("step %d (d = %v): Observe = %+v, reference %+v", k, d, got, want)
		}
	}
	if got, want := fe.ZeroThreshold(), 10*nf; !sameBits(got, want) {
		t.Fatalf("ZeroThreshold = %v, want %v", got, want)
	}
}

func TestFrontEndObserveZeroAlloc(t *testing.T) {
	p := BoschLRR2()
	fe, err := NewFrontEnd(p, prbs.PaperFigureSchedule(), noise.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	if avg := testing.AllocsPerRun(500, func() {
		fe.Observe(k, 40+float64(k%100), -1)
		k++
	}); avg != 0 {
		t.Fatalf("FrontEnd.Observe: %v allocs/op, want 0", avg)
	}
}
