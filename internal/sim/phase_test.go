package sim

import (
	"context"
	"runtime/pprof"
	"testing"

	"safesense/internal/obs/profile"
)

func TestPhaseHookZeroAlloc(t *testing.T) {
	defer pprof.SetGoroutineLabels(context.Background())
	for _, labeled := range []bool{false, true} {
		if labeled {
			profile.Enable()
			defer profile.Disable()
		}
		ph := newPhaseHook(context.Background())
		if (ph.labels != nil) != labeled {
			t.Fatalf("labels built = %v with profile.Enabled() = %v", ph.labels != nil, labeled)
		}
		assertZeroAllocs(t, "enter/exit", func() {
			for p := phase(0); p < numPhases; p++ {
				ph.enter(p)
				ph.exit()
			}
		})
	}
}

// TestPhaseHookLabelsKeepBase checks the prebuilt label contexts: each
// carries phase=<name> merged onto the run context's campaign/job
// labels, while the base context itself carries no phase.
func TestPhaseHookLabelsKeepBase(t *testing.T) {
	profile.Enable()
	defer profile.Disable()
	profile.DoJob(context.Background(), "sweep", 7, func(ctx context.Context) {
		ph := newPhaseHook(ctx)
		for p, name := range phaseNames {
			lctx := ph.labels[p]
			if v, ok := pprof.Label(lctx, profile.LabelPhase); !ok || v != name {
				t.Errorf("phase %d: phase label = %q ok=%v, want %q", p, v, ok, name)
			}
			if v, ok := pprof.Label(lctx, profile.LabelCampaign); !ok || v != "sweep" {
				t.Errorf("phase %s: campaign label = %q ok=%v", name, v, ok)
			}
			if v, ok := pprof.Label(lctx, profile.LabelJob); !ok || v != "7" {
				t.Errorf("phase %s: job label = %q ok=%v", name, v, ok)
			}
		}
		if _, ok := pprof.Label(ph.ctx, profile.LabelPhase); ok {
			t.Error("base context carries a phase label")
		}
	})
}

func TestPhaseNamesMatchTable(t *testing.T) {
	names := PhaseNames()
	if len(names) != int(numPhases) {
		t.Fatalf("PhaseNames() = %v, want %d names", names, numPhases)
	}
	names[0] = "mutated"
	if PhaseNames()[0] != PhaseRadarSynthesis {
		t.Fatal("PhaseNames() shares its backing array with the phase table")
	}
}

// TestRLSTimeIsRLSPhaseTotal pins the paper's T1 figure to the phase
// breakdown: RLSTime is exactly the rls_estimation phase total.
func TestRLSTimeIsRLSPhaseTotal(t *testing.T) {
	res, err := Run(Fig2aDoS())
	if err != nil {
		t.Fatal(err)
	}
	rls := phaseByName(t, res.Phases, PhaseRLSEstimation)
	if rls.Calls == 0 {
		t.Fatal("rls estimation never ran on a defended run")
	}
	if got := res.RLSTime.Seconds(); got != rls.Seconds {
		t.Fatalf("RLSTime %.12fs != rls_estimation phase %.12fs", got, rls.Seconds)
	}
}
