package perf

import (
	"bytes"
	"runtime/pprof"
	"sort"

	"safesense/internal/obs/profile"
)

// scenarioProfile wraps one scenario's measured repetitions in a CPU
// profile with the sim phase labels enabled.
type scenarioProfile struct {
	buf bytes.Buffer
	on  bool
}

// start enables phase labeling and begins the CPU capture. A
// StartCPUProfile failure (another capture owns the profiler) is not
// fatal: the scenario still measures, it just carries no attribution.
func (sp *scenarioProfile) start() {
	profile.Enable()
	if err := pprof.StartCPUProfile(&sp.buf); err != nil {
		profile.Disable()
		return
	}
	sp.on = true
}

// finish stops the capture and digests it. Decode or summarize failures
// yield nil — attribution is advisory and never fails a measurement.
func (sp *scenarioProfile) finish() *profile.Summary {
	if !sp.on {
		return nil
	}
	pprof.StopCPUProfile()
	profile.Disable()
	sp.on = false
	p, err := profile.Decode(sp.buf.Bytes())
	if err != nil {
		return nil
	}
	sum, err := profile.Summarize(p)
	if err != nil {
		return nil
	}
	return sum
}

// HotFunctionMinDeltaShare is the flat-share growth floor (one
// percentage point) below which a function is not blamed for a
// regression.
const HotFunctionMinDeltaShare = 0.01

// FuncDelta is one function's flat-share movement between two
// captures. Shares (fractions of each capture's own total) are compared
// rather than raw values because the two windows rarely cover the same
// wall time or sample count.
type FuncDelta struct {
	Name        string  `json:"name"`
	BeforeShare float64 `json:"before_share"`
	AfterShare  float64 `json:"after_share"`
	DeltaShare  float64 `json:"delta_share"`
	BeforeFlat  int64   `json:"before_flat"`
	AfterFlat   int64   `json:"after_flat"`
}

// AttributeRegressions annotates gate findings with the functions whose
// flat CPU share grew by at least HotFunctionMinDeltaShare between the
// two captures' embedded top tables, largest growth first (ties by
// name), so the gate names suspects instead of just the scenario. A
// function outside one side's top table counts as zero share there.
// Regressions whose scenario lacks a profile on either side pass
// through unchanged.
func AttributeRegressions(regs []Regression, old, new *Run) []Regression {
	if len(regs) == 0 {
		return regs
	}
	profiles := func(r *Run) map[string]*profile.Summary {
		m := make(map[string]*profile.Summary, len(r.Scenarios))
		for i := range r.Scenarios {
			m[r.Scenarios[i].Name] = r.Scenarios[i].Profile
		}
		return m
	}
	oldProf, newProf := profiles(old), profiles(new)
	for i := range regs {
		before, after := oldProf[regs[i].Scenario], newProf[regs[i].Scenario]
		if before == nil || after == nil {
			continue
		}
		regs[i].HotFunctions = growers(before.Top, after.Top)
	}
	return regs
}

// growers lists the functions whose flat share grew by at least
// HotFunctionMinDeltaShare from before to after.
func growers(before, after []profile.FuncStat) []FuncDelta {
	prior := make(map[string]profile.FuncStat, len(before))
	for _, f := range before {
		prior[f.Name] = f
	}
	var out []FuncDelta
	for _, f := range after {
		b := prior[f.Name]
		if d := f.FlatShare - b.FlatShare; d >= HotFunctionMinDeltaShare {
			out = append(out, FuncDelta{
				Name:        f.Name,
				BeforeShare: b.FlatShare,
				AfterShare:  f.FlatShare,
				DeltaShare:  d,
				BeforeFlat:  b.Flat,
				AfterFlat:   f.Flat,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeltaShare != out[j].DeltaShare {
			return out[i].DeltaShare > out[j].DeltaShare
		}
		return out[i].Name < out[j].Name
	})
	return out
}
