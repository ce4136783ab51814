package sim

import (
	"testing"

	"safesense/internal/radar"
)

// Zero-allocation guards for the //safesense:hotpath flight-recorder
// functions: the hotpathalloc analyzer forbids the static allocation
// patterns; these tests enforce the same contract dynamically. The
// common no-anomaly timestep must not allocate at all (emit is allowed
// to stay at zero only while inside its preallocated event buffer, and
// endStep only on anomaly-free steps — both are the steady state).

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

func TestFlightRecorderEmitZeroAlloc(t *testing.T) {
	fr := newFlightRecorder()
	assertZeroAllocs(t, "emit", func() {
		fr.events = fr.events[:0] // stay inside the preallocated buffer
		fr.emit(EventChallenge, 1e-13, "")
	})
}

// countingSink counts deliveries without retaining the event — the
// shape of a well-behaved live tap.
type countingSink struct{ n int }

func (s *countingSink) FlightEvent(FlightEvent) { s.n++ }

func TestFlightRecorderEmitWithSinkZeroAlloc(t *testing.T) {
	fr := newFlightRecorder()
	sink := &countingSink{}
	fr.sink = sink
	assertZeroAllocs(t, "emit+sink", func() {
		fr.events = fr.events[:0]
		fr.emit(EventChallenge, 1e-13, "")
	})
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
}

func TestFlightRecorderRecordZeroAlloc(t *testing.T) {
	fr := newFlightRecorder()
	st := StepState{K: 1, GapM: 30, UsedM: 30}
	assertZeroAllocs(t, "record", func() { fr.record(st) })
}

func TestFlightRecorderFlagAnomalyZeroAlloc(t *testing.T) {
	fr := newFlightRecorder()
	assertZeroAllocs(t, "flagAnomaly", func() {
		fr.npending = 0 // re-arm the fixed pending buffer
		fr.flagAnomaly(AnomalyCollision, "gap 0")
	})
}

func TestFlightRecorderEndStepZeroAlloc(t *testing.T) {
	fr := newFlightRecorder()
	st := StepState{K: 2, GapM: 28}
	// The steady state: no pending anomalies, so endStep is one ring
	// store.
	assertZeroAllocs(t, "endStep", func() { fr.endStep(st) })
}

// maxClosedFormRunAllocs caps the heap allocations of one closed-form
// figure run. The step loop allocates nothing, so what remains is a
// per-run constant (the Result and its presized traces, the estimator,
// controller and front end, the flight recorder): 126 for every
// figure scenario when the cap was set, from 9,369 when every RLS
// update and basis shift built fresh matrices.
const maxClosedFormRunAllocs = 140

func TestClosedFormRunAllocsBounded(t *testing.T) {
	for _, s := range []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()} {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := Run(s); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxClosedFormRunAllocs {
			t.Errorf("%s: %v allocs per run, want at most %d", s.Name, avg, maxClosedFormRunAllocs)
		}
	}
}

// maxSignalLevelRunAllocs caps the heap allocations of one FFT
// signal-level figure run. The periodogram runs in the front end's
// per-run workspace, so what remains is one buffer per sweep segment
// (the sweep is the caller's to keep), the attack's corrupted copies and
// the per-run constant: 970–980 per figure scenario when the cap was set,
// from about 10,400 when every extraction built its window, FFT input,
// spectrum, PSD, bin table and candidate list afresh.
const maxSignalLevelRunAllocs = 1080

func TestSignalLevelRunAllocsBounded(t *testing.T) {
	for _, s := range []Scenario{Fig2aDoS(), Fig2bDelay(), Fig3aDoS(), Fig3bDelay()} {
		s = signalLevel(s, radar.FFTExtractor{})
		avg := testing.AllocsPerRun(5, func() {
			if _, err := Run(s); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxSignalLevelRunAllocs {
			t.Errorf("%s: %v allocs per run, want at most %d", s.Name, avg, maxSignalLevelRunAllocs)
		}
	}
}
