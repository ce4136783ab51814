package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"safesense/internal/stats"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := tailOK(tc.n, tc.p); got != tc.want {
			t.Errorf("tailOK(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{50, 0}, {100, 90}, {250, 95}, {1500, 99}, {20000, 99.9}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestFailedOperationsMissEveryLatencyBound(t *testing.T) {
	var s sample
	for i := 0; i < 95; i++ {
		s.addResult(time.Millisecond, nil)
	}
	for i := 0; i < 5; i++ {
		s.addResult(time.Millisecond, errors.New("refused"))
	}
	if got := median(s); got != 1 {
		t.Errorf("p50 = %v, want 1 ms", got)
	}
	if got := stats.Percentile(s, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 5%% failures = %v, want +Inf", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRec{
		{ID: "p", Name: "campaign.run", Layer: "campaign", Start: at(0), End: at(10)},
		// Overlapping children (two pool workers) cover 2..8 once.
		{ID: "a", Parent: "p", Name: "sim.run", Layer: "sim", Start: at(2), End: at(5)},
		{ID: "b", Parent: "p", Name: "sim.run", Layer: "sim", Start: at(4), End: at(8)},
		// A child that outlives its parent is clipped to the parent.
		{ID: "c", Parent: "p", Name: "sim.run", Layer: "sim", Start: at(9), End: at(12)},
	}
	self := selfTimes(spans)
	if want := 3 * time.Millisecond; self["campaign"] != want {
		t.Errorf("campaign self = %v, want %v", self["campaign"], want)
	}
	if want := 10 * time.Millisecond; self["sim"] != want {
		t.Errorf("sim self = %v, want %v", self["sim"], want)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"http POST /v1/run": "safesensed",
		"campaign.job":      "campaign",
		"dist.lease":        "dist",
		"sim.run":           "sim",
		"bench.run":         "bench",
		"estimate.observe":  "estimate",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParseMemstatsSkipsBrokenVariables(t *testing.T) {
	vars := []byte("{\n\"cmdline\": [\"safesensed\"],\n" +
		"\"memstats\": {\"Alloc\":1,\"TotalAlloc\":2048,\"Mallocs\":17,\"NumGC\":3},\n" +
		"\"safesense_metrics\": \n}\n")
	ms, err := parseMemstats(vars)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Mallocs != 17 || ms.TotalAlloc != 2048 || ms.NumGC != 3 {
		t.Errorf("parsed %+v", ms)
	}
	if _, err := parseMemstats([]byte("{}")); err == nil {
		t.Error("a document without memstats should be an error")
	}
}
