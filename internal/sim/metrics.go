package sim

import (
	"safesense/internal/obs"
)

var (
	metricRuns = obs.Default().Counter(
		"safesense_sim_runs_total", "Completed simulation runs.")
	metricPhaseSeconds = obs.Default().Histogram(
		"safesense_sim_phase_seconds",
		"Cumulative wall time one simulation run spent in each phase.",
		obs.DefBuckets, "phase")
)

// PhaseTiming reports the cumulative wall time and span count one run
// spent in a named phase.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Calls   int     `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// TotalSeconds sums a phase breakdown (instrumented time only; the run's
// wall clock also covers untimed bookkeeping).
func TotalSeconds(phases []PhaseTiming) float64 {
	var s float64
	for _, p := range phases {
		s += p.Seconds
	}
	return s
}
