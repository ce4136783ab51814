package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"

	"safesense/internal/obs/profile"
	"safesense/internal/radar"
	"safesense/internal/sim"
)

// TestProfileSmoke is the continuous-profiling CI gate (make
// profile-smoke): a figure-level scenario on the high-fidelity
// root-MUSIC pipeline runs under the CPU profiler with phase labels
// enabled, and the capture — decoded by the repo's own pprof reader —
// must be non-empty, its phase shares must sum to one, and
// beat_extraction must be the largest phase (the paper's pipeline
// spends its time extracting beat frequencies, and the labels must
// attribute that correctly). With PROFILE_SMOKE_OUT set, the decoded
// summary is written there as JSON for the CI artifact.
func TestProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("needs ~2s of profiled wall time")
	}
	s := sim.Fig2aDoS()
	s.SignalLevel = true
	s.Extractor = radar.MUSICExtractor{}

	profile.Enable()
	defer profile.Disable()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	var runErr error
	for i := 0; i < 2 && runErr == nil; i++ {
		_, runErr = sim.Run(s)
	}
	pprof.StopCPUProfile()
	if runErr != nil {
		t.Fatal(runErr)
	}

	p, err := profile.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding own capture: %v", err)
	}
	sum, err := profile.Summarize(p)
	if err != nil {
		t.Fatalf("summarizing own capture: %v", err)
	}

	if sum.TotalSamples == 0 || sum.Total == 0 {
		t.Fatal("empty decoded summary")
	}
	if len(sum.Top) == 0 {
		t.Fatal("no functions in the top table")
	}
	var shareSum float64
	for _, ph := range sum.Phases {
		shareSum += ph.Share
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("phase shares sum to %v, want 1 (phases: %+v)", shareSum, sum.Phases)
	}
	// Largest *labeled* phase must be beat extraction: root-MUSIC
	// dominates the signal-level pipeline. The unlabeled bucket (GC,
	// runtime, test harness) is excluded from the comparison.
	beat := sum.PhaseShare(sim.PhaseBeatExtraction)
	if beat == 0 {
		t.Fatalf("no beat_extraction samples; phases: %+v", sum.Phases)
	}
	for _, name := range sim.PhaseNames() {
		if name == sim.PhaseBeatExtraction {
			continue
		}
		if share := sum.PhaseShare(name); share >= beat {
			t.Fatalf("phase %s share %.3f >= beat_extraction %.3f; phases: %+v",
				name, share, beat, sum.Phases)
		}
	}

	if out := os.Getenv("PROFILE_SMOKE_OUT"); out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("wrote %s (%d samples, beat_extraction %.1f%%)", out, sum.TotalSamples, beat*100)
	}
}
