package sim

import (
	"context"
	"runtime/pprof"
	rt "runtime/trace"
	"time"

	"safesense/internal/obs"
	"safesense/internal/obs/profile"
)

// Phase names for the per-run timing breakdown. These are the label
// values of the safesense_sim_phase_seconds histogram, the runtime/trace
// region names, the pprof "phase" label values, and the names printed by
// safesim -timing.
const (
	PhaseRadarSynthesis = "radar_synthesis"
	PhaseBeatExtraction = "beat_extraction"
	PhaseCRACheck       = "cra_check"
	PhaseRLSEstimation  = "rls_estimation"
	PhaseVehicleStep    = "vehicle_step"
)

// phase indexes the pipeline phases in execution order.
type phase uint8

const (
	phaseRadarSynthesis phase = iota
	phaseBeatExtraction
	phaseCRACheck
	phaseRLSEstimation
	phaseVehicleStep
	numPhases
)

var phaseNames = [numPhases]string{
	phaseRadarSynthesis: PhaseRadarSynthesis,
	phaseBeatExtraction: PhaseBeatExtraction,
	phaseCRACheck:       PhaseCRACheck,
	phaseRLSEstimation:  PhaseRLSEstimation,
	phaseVehicleStep:    PhaseVehicleStep,
}

// PhaseNames lists every pipeline phase in execution order — the label
// vocabulary of safesense_sim_phase_seconds and of the continuous
// profiler's pprof "phase" label (callers use it as the bounded gauge
// whitelist).
func PhaseNames() []string { return append([]string(nil), phaseNames[:]...) }

// phaseHook is the step loop's single phase instrument. Entering a
// phase starts its wall timer and, when a consumer is active, opens a
// runtime/trace region and swaps in the phase's pprof labels; exiting
// undoes all three. The consumer set is decided once per run, so with
// tracing and profiling off a phase costs two clock reads and two
// branches.
type phaseHook struct {
	ctx     context.Context
	traceOn bool
	// labels holds one prebuilt context per phase, each carrying
	// phase=<name> on top of ctx's own labels (e.g. campaign/job from
	// profile.DoJob); nil when no profile consumer is active.
	labels []context.Context

	timers [numPhases]obs.Timer
	span   obs.Span
	region *rt.Region
}

// newPhaseHook decides the run's consumers: the wall timers always, a
// trace region when the execution tracer is on, and pprof phase labels
// when a profile consumer is active (continuous profiler, -profile-dir,
// perf capture).
func newPhaseHook(ctx context.Context) *phaseHook {
	h := &phaseHook{ctx: ctx, traceOn: rt.IsEnabled()}
	if profile.Enabled() {
		h.labels = make([]context.Context, numPhases)
		for p, name := range phaseNames {
			h.labels[p] = pprof.WithLabels(ctx, pprof.Labels(profile.LabelPhase, name))
		}
	}
	return h
}

// enter starts phase p. Phases do not nest: every enter is closed by an
// exit before the next.
//
//safesense:hotpath
func (h *phaseHook) enter(p phase) {
	if h.traceOn {
		h.region = rt.StartRegion(h.ctx, phaseNames[p])
	}
	if h.labels != nil {
		pprof.SetGoroutineLabels(h.labels[p])
	}
	h.span = h.timers[p].Start()
}

// exit ends the current phase, restores the run's base labels, and
// returns the phase's wall time.
//
//safesense:hotpath
func (h *phaseHook) exit() time.Duration {
	d := h.span.End()
	if h.labels != nil {
		pprof.SetGoroutineLabels(h.ctx)
	}
	if h.traceOn {
		h.region.End()
	}
	return d
}

// timings projects the run's phase timers onto Result.Phases and the
// process-wide metrics. Phases that never ran (e.g. beat extraction on
// the closed-form pipeline, RLS when undefended) are kept in the
// breakdown with zero calls but not observed into the histogram, so the
// per-phase distributions only contain runs that exercised the phase.
func (h *phaseHook) timings() []PhaseTiming {
	metricRuns.With().Inc()
	out := make([]PhaseTiming, numPhases)
	for p, name := range phaseNames {
		t := &h.timers[p]
		out[p] = PhaseTiming{Phase: name, Calls: t.Calls(), Seconds: t.Total().Seconds()}
		if t.Calls() > 0 {
			metricPhaseSeconds.With(name).Observe(t.Total().Seconds())
		}
	}
	return out
}
