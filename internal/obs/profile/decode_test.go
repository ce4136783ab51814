package profile

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
)

// testProfile fabricates a small two-dimension profile exercising every
// decoded field: labels, multi-line (inlined) locations, comments, and
// a default sample type.
func testProfile() *Profile {
	return &Profile{
		SampleType: []ValueType{
			{Type: "samples", Unit: "count"},
			{Type: "cpu", Unit: "nanoseconds"},
		},
		Sample: []Sample{
			{
				LocationID: []uint64{1, 2},
				Value:      []int64{3, 30_000_000},
				Label:      []Label{{Key: LabelPhase, Str: "beat_extraction"}},
			},
			{
				LocationID: []uint64{2},
				Value:      []int64{1, 10_000_000},
				Label: []Label{
					{Key: LabelPhase, Str: "rls_estimation"},
					{Key: LabelJob, Num: 7, NumUnit: "index"},
				},
			},
			{LocationID: []uint64{3, 2}, Value: []int64{2, 20_000_000}},
		},
		Location: []Location{
			{ID: 1, Address: 0x40_0000, Line: []Line{{FunctionID: 1, Line: 42}}},
			// Two lines: an inlined frame inside its caller.
			{ID: 2, Line: []Line{{FunctionID: 2, Line: 7}, {FunctionID: 3, Line: 99, Column: 4}}},
			{ID: 3, Line: []Line{{FunctionID: 3, Line: 120}}},
		},
		Function: []Function{
			{ID: 1, Name: "radar.MUSICExtractor.Extract", Filename: "signal.go", StartLine: 115},
			{ID: 2, Name: "sim.stepOnce", SystemName: "safesense/internal/sim.stepOnce", Filename: "runner.go"},
			{ID: 3, Name: "sim.RunContext", Filename: "runner.go", StartLine: 100},
		},
		TimeNanos:         1_700_000_000_000_000_000,
		DurationNanos:     2_000_000_000,
		PeriodType:        ValueType{Type: "cpu", Unit: "nanoseconds"},
		Period:            10_000_000,
		Comment:           []string{"fabricated test capture"},
		DefaultSampleType: "cpu",
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	want := testProfile()
	got, err := Decode(Marshal(want))
	if err != nil {
		t.Fatalf("Decode(Marshal): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDecodeGzipRoundTrip(t *testing.T) {
	want := testProfile()
	data := MarshalGzip(want)
	if data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("MarshalGzip output is not gzip framed: % x", data[:2])
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(MarshalGzip): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("gzip round trip mismatch")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid := Marshal(testProfile())
	cases := map[string][]byte{
		"truncated":       valid[:len(valid)-3],
		"bad gzip header": {0x1f, 0x8b, 0xff, 0x00},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsValueCountMismatch(t *testing.T) {
	p := testProfile()
	p.Sample[1].Value = p.Sample[1].Value[:1] // one value, two sample types
	if _, err := Decode(Marshal(p)); err == nil {
		t.Fatal("Decode accepted a sample with the wrong value arity")
	}
}

func TestDecodeRejectsBadStringIndex(t *testing.T) {
	raw := Marshal(testProfile())
	// Append a default_sample_type (field 14) index far past the string
	// table: str() must reject it.
	raw = appendTag(raw, 14, wireVarint)
	raw = append(raw, 0x7f)
	if _, err := Decode(raw); err == nil {
		t.Fatal("Decode accepted an out-of-range string index")
	}
}

// TestDecodeRealRuntimeCapture exercises the decoder against a live
// runtime/pprof capture (packed location/value encodings, mappings,
// real label plumbing) rather than only our own encoder's output.
func TestDecodeRealRuntimeCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels(LabelPhase, "beat_extraction")))
	sink := 0.0
	for i := 0; i < 20_000_000; i++ {
		sink += math.Sqrt(float64(i))
	}
	pprof.SetGoroutineLabels(context.Background())
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("burn loop optimized away")
	}

	p, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("Decode(real capture): %v", err)
	}
	if len(p.SampleType) == 0 || p.SampleType[len(p.SampleType)-1].Type != "cpu" {
		t.Fatalf("sample types = %+v, want trailing cpu", p.SampleType)
	}
	// Idempotence against the runtime encoder: decode(Marshal(decode(x)))
	// must equal decode(x).
	again, err := Decode(Marshal(p))
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Fatal("re-encode/re-decode of a runtime capture diverged")
	}
}

// goldenFixture is the checked-in gzipped pprof capture and its pinned
// summary (regenerate with PROFILE_REGEN_FIXTURE=1).
const (
	goldenCapture = "testdata/cpu_golden.pprof.gz"
	goldenSummary = "testdata/cpu_golden_summary.json"
)

// TestDecodeGoldenFixture pins the decoder + summarizer output on a
// checked-in capture: any change to flat/cum attribution, phase-share
// accounting, or top-table ordering shows up as a golden diff.
func TestDecodeGoldenFixture(t *testing.T) {
	raw, err := os.ReadFile(goldenCapture)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with PROFILE_REGEN_FIXTURE=1): %v", err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	sum, err := Summarize(p)
	if err != nil {
		t.Fatalf("Summarize(golden): %v", err)
	}
	got, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenSummary)
	if err != nil {
		t.Fatalf("missing golden summary: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("golden summary drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The fixture must also satisfy the fuzz oracle.
	again, err := Decode(Marshal(p))
	if err != nil {
		t.Fatalf("re-decode golden: %v", err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Fatal("golden capture is not idempotent under re-encode")
	}
}

// TestRegenGoldenFixture rewrites the golden files from a deterministic
// fabricated capture. Gated behind an env var so normal runs never
// touch testdata.
func TestRegenGoldenFixture(t *testing.T) {
	if os.Getenv("PROFILE_REGEN_FIXTURE") == "" {
		t.Skip("set PROFILE_REGEN_FIXTURE=1 to regenerate the golden fixture")
	}
	p := testProfile()
	if err := os.MkdirAll(filepath.Dir(goldenCapture), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenCapture, MarshalGzip(p), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenSummary, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeSampleZeroAlloc guards the hot decode loop: once the
// destination slices have capacity, decoding a sample must not allocate.
func TestDecodeSampleZeroAlloc(t *testing.T) {
	e := &encoder{index: map[string]uint64{"": 0}, table: []string{""}}
	src := Sample{
		LocationID: []uint64{1, 2, 3, 4},
		Value:      []int64{5, 50},
		Label: []Label{
			{Key: LabelPhase, Str: "cra_check"},
			{Key: LabelJob, Num: 3},
		},
	}
	buf := e.sample(&src)
	table := e.table

	var s Sample
	ok := true
	decodeOnce := func() {
		s.LocationID = s.LocationID[:0]
		s.Value = s.Value[:0]
		s.Label = s.Label[:0]
		ok = ok && decodeSample(buf, table, &s)
	}
	decodeOnce() // warm slice capacity
	allocs := testing.AllocsPerRun(200, decodeOnce)
	if !ok {
		t.Fatal("decodeSample failed")
	}
	if allocs != 0 {
		t.Fatalf("decodeSample allocates %v/op with warm slices, want 0", allocs)
	}
	if !reflect.DeepEqual(s.Value, src.Value) || !reflect.DeepEqual(s.Label, src.Label) {
		t.Fatalf("decoded sample mismatch: %+v", s)
	}
}
