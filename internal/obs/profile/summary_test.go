package profile

import (
	"fmt"
	"testing"
)

func TestSummarizePhaseSharesAndTop(t *testing.T) {
	sum, err := Summarize(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if sum.SampleType != "cpu" || sum.Unit != "nanoseconds" {
		t.Fatalf("selected %s/%s, want cpu/nanoseconds (default_sample_type)", sum.SampleType, sum.Unit)
	}
	if sum.Total != 60_000_000 || sum.TotalSamples != 3 {
		t.Fatalf("total = %d over %d samples", sum.Total, sum.TotalSamples)
	}
	var shareSum float64
	shares := map[string]float64{}
	for _, p := range sum.Phases {
		shareSum += p.Share
		shares[p.Value] = p.Share
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("phase shares sum to %v, want 1", shareSum)
	}
	if shares["beat_extraction"] != 0.5 || shares[Unlabeled] <= 0 {
		t.Fatalf("phase shares = %v", shares)
	}
	// Phases are descending by total; beat_extraction (30ms) leads.
	if sum.Phases[0].Value != "beat_extraction" {
		t.Fatalf("largest phase = %s", sum.Phases[0].Value)
	}
	// Non-phase label keys are listed without value enumeration.
	if len(sum.LabelKeys) != 1 || sum.LabelKeys[0] != LabelJob {
		t.Fatalf("label keys = %v", sum.LabelKeys)
	}
	if len(sum.Top) == 0 {
		t.Fatal("empty top table")
	}
	// Flat attribution goes to the leaf location's innermost frame:
	// sample 1 (30ms) leafs at location 1 -> MUSICExtractor.Extract.
	if sum.Top[0].Name != "radar.MUSICExtractor.Extract" {
		t.Fatalf("top flat = %s (%+v)", sum.Top[0].Name, sum.Top)
	}
	if sum.Top[0].Flat != 30_000_000 || sum.Top[0].FlatShare != 0.5 {
		t.Fatalf("top row = %+v", sum.Top[0])
	}
	if got := sum.PhaseShare("beat_extraction"); got != 0.5 {
		t.Fatalf("PhaseShare = %v", got)
	}
	if got := sum.PhaseShare("no_such_phase"); got != 0 {
		t.Fatalf("PhaseShare(absent) = %v", got)
	}
}

// TestSummarizeSampleTypeSelection pins go tool pprof's dimension rule:
// default_sample_type first, then the last dimension.
func TestSummarizeSampleTypeSelection(t *testing.T) {
	p := testProfile()
	p.DefaultSampleType = "samples"
	sum, err := Summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 6 || sum.Unit != "count" {
		t.Fatalf("samples dimension: total=%d unit=%s", sum.Total, sum.Unit)
	}
	p.DefaultSampleType = ""
	if sum, err = Summarize(p); err != nil || sum.SampleType != "cpu" {
		t.Fatalf("no default type: got %+v, %v; want the last dimension (cpu)", sum, err)
	}
	p.DefaultSampleType = "alloc_space"
	if _, err := Summarize(p); err == nil {
		t.Fatal("Summarize accepted a missing default sample type")
	}
	if _, err := Summarize(&Profile{}); err == nil {
		t.Fatal("Summarize accepted a profile with no sample types")
	}
}

func TestSummarizeBoundsTopTable(t *testing.T) {
	p := &Profile{SampleType: []ValueType{{Type: "cpu", Unit: "nanoseconds"}}}
	for i := 1; i <= 3*topN/2; i++ {
		id := uint64(i)
		p.Function = append(p.Function, Function{ID: id, Name: fmt.Sprintf("f%02d", i)})
		p.Location = append(p.Location, Location{ID: id, Line: []Line{{FunctionID: id}}})
		p.Sample = append(p.Sample, Sample{LocationID: []uint64{id}, Value: []int64{int64(i)}})
	}
	sum, err := Summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Top) != topN || sum.Top[0].Name != fmt.Sprintf("f%02d", 3*topN/2) {
		t.Fatalf("top table = %+v, want the %d largest", sum.Top, topN)
	}
}

func TestSummarizeEmptySamples(t *testing.T) {
	p := &Profile{SampleType: []ValueType{{Type: "cpu", Unit: "nanoseconds"}}}
	sum, err := Summarize(p)
	if err != nil {
		t.Fatalf("empty capture must summarize to zero, got error: %v", err)
	}
	if sum.Total != 0 || sum.TotalSamples != 0 || len(sum.Top) != 0 {
		t.Fatalf("zero-sample summary = %+v", sum)
	}
}
