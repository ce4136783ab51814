package perf

import (
	"encoding/json"
	"reflect"
	"testing"

	"safesense/internal/obs/profile"
)

// flatTop builds a summary whose top table carries the given flat
// shares (flat value = share × 1024, so every share is exact in binary).
func flatTop(shares map[string]float64) *profile.Summary {
	s := &profile.Summary{SampleType: "cpu", Total: 1024}
	for name, share := range shares {
		s.Top = append(s.Top, profile.FuncStat{Name: name, Flat: int64(share * 1024), FlatShare: share})
	}
	return s
}

func TestAttributeRegressions(t *testing.T) {
	cases := []struct {
		name          string
		before, after *profile.Summary
		want          []string
	}{
		{
			name:   "growth past the floor is named",
			before: flatTop(map[string]float64{"a": 0.25, "b": 0.5}),
			after:  flatTop(map[string]float64{"a": 0.265625, "b": 0.484375}),
			want:   []string{"a"},
		},
		{
			name:   "growth below the floor and shrinking rows are not named",
			before: flatTop(map[string]float64{"a": 0.25, "b": 0.5}),
			after:  flatTop(map[string]float64{"a": 0.2578125, "b": 0.25}),
			want:   nil,
		},
		{
			name:   "ordered by growth, then by name",
			before: flatTop(map[string]float64{"x": 0.125, "y": 0.125, "z": 0.125}),
			after:  flatTop(map[string]float64{"x": 0.1875, "y": 0.25, "z": 0.1875, "new": 0.0625}),
			want:   []string{"y", "new", "x", "z"},
		},
		{
			name:   "no profile on the old side passes through",
			before: nil,
			after:  flatTop(map[string]float64{"a": 1}),
			want:   nil,
		},
		{
			name:   "no profile on the new side passes through",
			before: flatTop(map[string]float64{"a": 0.5}),
			after:  nil,
			want:   nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := mkRun("old", map[string][]float64{"fig": {1}})
			new := mkRun("new", map[string][]float64{"fig": {2}})
			old.Scenarios[0].Profile, new.Scenarios[0].Profile = tc.before, tc.after
			reg := Regression{Scenario: "fig", Delta: MetricDelta{Metric: MetricNsPerOp}}
			got := AttributeRegressions([]Regression{reg}, old, new)
			if len(got) != 1 || got[0].Scenario != "fig" || got[0].Delta != reg.Delta {
				t.Fatalf("regression rewritten: %+v", got)
			}
			var names []string
			for _, f := range got[0].HotFunctions {
				names = append(names, f.Name)
				if f.DeltaShare < HotFunctionMinDeltaShare || f.DeltaShare != f.AfterShare-f.BeforeShare {
					t.Errorf("row %+v: inconsistent delta", f)
				}
			}
			if !reflect.DeepEqual(names, tc.want) {
				t.Fatalf("hot functions = %v, want %v", names, tc.want)
			}
		})
	}
}

// TestHotFunctionsJSONShape pins the hot_functions row field names the
// `safesense-perf check -json` verdict carries.
func TestHotFunctionsJSONShape(t *testing.T) {
	reg := Regression{Scenario: "fig", HotFunctions: []FuncDelta{{
		Name: "f", BeforeShare: 0.25, AfterShare: 0.5, DeltaShare: 0.25, BeforeFlat: 1, AfterFlat: 2,
	}}}
	raw, err := json.Marshal(reg.HotFunctions)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"name":"f","before_share":0.25,"after_share":0.5,"delta_share":0.25,"before_flat":1,"after_flat":2}]`
	if string(raw) != want {
		t.Fatalf("hot_functions rows = %s, want %s", raw, want)
	}
	var fields map[string]json.RawMessage
	raw, _ = json.Marshal(reg)
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["hot_functions"]; !ok {
		t.Fatalf("regression JSON lost hot_functions: %s", raw)
	}
}
