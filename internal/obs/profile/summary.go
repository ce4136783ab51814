package profile

import (
	"fmt"
	"sort"
	"strings"
)

// topN bounds the summary's function tables (by flat and by cum).
const topN = 10

// FuncStat is one row of the summary's function table.
type FuncStat struct {
	Name string `json:"name"`
	// Flat is the value sampled with this function on top of the stack;
	// Cum counts every sample the function appears anywhere in.
	Flat      int64   `json:"flat"`
	Cum       int64   `json:"cum"`
	FlatShare float64 `json:"flat_share"`
	CumShare  float64 `json:"cum_share"`
}

// LabelShare is one label value's share of the profile total.
type LabelShare struct {
	Value string  `json:"value"`
	Total int64   `json:"total"`
	Share float64 `json:"share"`
}

// Summary is the machine-readable digest of one capture: which
// functions burn the selected dimension and how it splits across the
// pipeline-phase labels. Shares are fractions of Total; the Phases
// shares (including the "(unlabeled)" bucket) sum to 1 by construction.
type Summary struct {
	SampleType    string `json:"sample_type"`
	Unit          string `json:"unit"`
	TotalSamples  int    `json:"total_samples"`
	Total         int64  `json:"total"`
	DurationNanos int64  `json:"duration_nanos,omitempty"`

	// Phases splits Total across the "phase" pprof label, descending,
	// with the "(unlabeled)" bucket covering runtime/GC/untagged code.
	Phases []LabelShare `json:"phases,omitempty"`
	// LabelKeys lists the other label keys seen on samples (e.g.
	// campaign, job) without enumerating their — unbounded — values.
	LabelKeys []string `json:"label_keys,omitempty"`
	// Top unions the top-N functions by flat and by cumulative value,
	// sorted by flat descending.
	Top []FuncStat `json:"top"`
}

// unknownFunc labels frames whose location or function cannot be
// resolved (stripped or foreign profiles).
const unknownFunc = "(unknown)"

// Summarize digests a decoded profile over its default_sample_type,
// falling back to the last dimension — "cpu"/nanoseconds for runtime
// CPU captures, matching go tool pprof. It errors when the profile has
// no sample types or names a default type it does not carry; an empty
// sample list yields a zero-total summary rather than an error, so
// callers can distinguish "no samples landed" from "corrupt capture".
func Summarize(p *Profile) (*Summary, error) {
	if len(p.SampleType) == 0 {
		return nil, fmt.Errorf("profile: no sample types")
	}
	want := p.DefaultSampleType
	idx := -1
	if want == "" {
		idx = len(p.SampleType) - 1
	} else {
		for i, vt := range p.SampleType {
			if vt.Type == want {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile: no %q sample type (have %s)", want, sampleTypeNames(p))
	}

	locByID := make(map[uint64]*Location, len(p.Location))
	for i := range p.Location {
		locByID[p.Location[i].ID] = &p.Location[i]
	}
	fnByID := make(map[uint64]*Function, len(p.Function))
	for i := range p.Function {
		fnByID[p.Function[i].ID] = &p.Function[i]
	}
	fnName := func(locID uint64, innermostOnly bool, visit func(string)) {
		loc := locByID[locID]
		if loc == nil || len(loc.Line) == 0 {
			visit(unknownFunc)
			return
		}
		for _, ln := range loc.Line {
			name := unknownFunc
			if fn := fnByID[ln.FunctionID]; fn != nil && fn.Name != "" {
				name = fn.Name
			}
			visit(name)
			if innermostOnly {
				return
			}
		}
	}

	sum := &Summary{
		SampleType:    p.SampleType[idx].Type,
		Unit:          p.SampleType[idx].Unit,
		DurationNanos: p.DurationNanos,
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	phases := map[string]int64{}
	otherKeys := map[string]bool{}
	seen := map[string]bool{} // per-sample function dedupe for cum
	for si := range p.Sample {
		s := &p.Sample[si]
		v := s.Value[idx]
		sum.Total += v
		sum.TotalSamples++

		phase := Unlabeled
		for _, l := range s.Label {
			if l.Key == LabelPhase && l.Str != "" {
				phase = l.Str
			} else if l.Key != "" && l.Key != LabelPhase {
				otherKeys[l.Key] = true
			}
		}
		phases[phase] += v

		if len(s.LocationID) > 0 {
			// Flat: the leaf location's innermost inlined frame.
			fnName(s.LocationID[0], true, func(name string) { flat[name] += v })
		}
		clear(seen)
		for _, locID := range s.LocationID {
			fnName(locID, false, func(name string) {
				if !seen[name] {
					seen[name] = true
					cum[name] += v
				}
			})
		}
	}

	share := func(v int64) float64 {
		if sum.Total == 0 {
			return 0
		}
		return float64(v) / float64(sum.Total)
	}
	var phaseShares []LabelShare
	for value, total := range phases {
		phaseShares = append(phaseShares, LabelShare{Value: value, Total: total, Share: share(total)})
	}
	sort.Slice(phaseShares, func(i, j int) bool {
		if phaseShares[i].Total != phaseShares[j].Total {
			return phaseShares[i].Total > phaseShares[j].Total
		}
		return phaseShares[i].Value < phaseShares[j].Value
	})
	sum.Phases = phaseShares

	var labelKeys []string
	for k := range otherKeys {
		labelKeys = append(labelKeys, k)
	}
	sort.Strings(labelKeys)
	sum.LabelKeys = labelKeys

	keep := map[string]bool{}
	for _, name := range topNames(flat, topN) {
		keep[name] = true
	}
	for _, name := range topNames(cum, topN) {
		keep[name] = true
	}
	var top []FuncStat
	for name := range keep {
		top = append(top, FuncStat{
			Name: name, Flat: flat[name], Cum: cum[name],
			FlatShare: share(flat[name]), CumShare: share(cum[name]),
		})
	}
	sort.Slice(top, func(i, j int) bool {
		a, b := top[i], top[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		if a.Cum != b.Cum {
			return a.Cum > b.Cum
		}
		return a.Name < b.Name
	})
	sum.Top = top
	return sum, nil
}

// topNames returns the N keys with the largest values, name-tiebroken
// for determinism.
func topNames(m map[string]int64, n int) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

func sampleTypeNames(p *Profile) string {
	names := make([]string, len(p.SampleType))
	for i, vt := range p.SampleType {
		names[i] = vt.Type
	}
	return strings.Join(names, ", ")
}

// PhaseShare returns one phase's share of the summary total (zero when
// the phase took no samples).
func (s *Summary) PhaseShare(phase string) float64 {
	for _, p := range s.Phases {
		if p.Value == phase {
			return p.Share
		}
	}
	return 0
}
