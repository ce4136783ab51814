package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
	"safesense/internal/sim"
)

// smallSpec is a 10-job grid, quick enough for unit tests.
func smallSpec(seed int64) campaign.Spec {
	sp := gridSpec(seed, 0)
	sp.Replicates = 1
	return sp
}

func TestRunOracleRejectsWrongDetection(t *testing.T) {
	s := sim.Fig2aDoS()
	res, err := sim.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(res); err != nil {
		t.Fatalf("paper-seed Fig 2a should pass: %v", err)
	}
	for name, tamper := range map[string]func(r *sim.Result){
		"late detection":  func(r *sim.Result) { r.DetectedAt = 183 },
		"never detected":  func(r *sim.Result) { r.DetectedAt = -1 },
		"false positive":  func(r *sim.Result) { r.Accuracy.FalsePositives = 1 },
		"false negative":  func(r *sim.Result) { r.Accuracy.FalseNegatives = 1 },
		"non-finite RMSE": func(r *sim.Result) { r.EstimateDistRMSE = math.NaN() },
		"infinite gap":    func(r *sim.Result) { r.MinGap = math.Inf(-1) },
	} {
		bad := *res
		tamper(&bad)
		if err := checkRun(&bad); err == nil {
			t.Errorf("%s: oracle accepted a wrong result", name)
		}
	}
}

func TestFigureOracleRejectsTamperedCSV(t *testing.T) {
	dir := t.TempDir()
	for _, f := range paperFigures {
		for _, part := range []string{"distance", "velocity"} {
			name := f.id + "-" + part + ".csv"
			data, err := os.ReadFile("../results/" + name)
			if err != nil {
				t.Fatal(err)
			}
			if f.id == "fig3b" && part == "velocity" {
				data = bytes.Replace(data, []byte("0."), []byte("1."), 1)
			}
			if err := os.WriteFile(dir+"/"+name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkFigureCSVs("../results"); err != nil {
		t.Fatalf("committed results should match: %v", err)
	}
	err := checkFigureCSVs(dir)
	if err == nil || !strings.Contains(err.Error(), "fig3b-velocity") {
		t.Fatalf("tampered fig3b-velocity.csv: got %v", err)
	}
}

// fakeServer answers the service cycle's requests from canned bodies,
// so the client's failure accounting can be tested without safesensed.
type fakeServer struct {
	runStatus int
	runBody   []byte
	aggregate []byte
	jobs      int
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/run":
		w.WriteHeader(f.runStatus)
		w.Write(f.runBody)
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/campaigns"):
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"c000001","jobs":%d}`, f.jobs)
	case r.URL.Path == "/debug/vars":
		fmt.Fprint(w, "{\n\"memstats\": {\"Mallocs\":1,\"TotalAlloc\":1,\"NumGC\":0}\n}\n")
	case r.URL.Path == "/debug/traces":
		fmt.Fprint(w, `{"spans":[]}`) // tracing sampled nothing
	case strings.HasSuffix(r.URL.Path, "/stream"):
		w.Header().Set("Content-Type", "text/event-stream")
		done := fmt.Sprintf(`{"campaign":"c000001","status":"done","aggregate":%s}`, f.aggregate)
		stream.EncodeFrame(w, stream.Frame{ID: 1, Event: "progress", Data: []byte(`{"done":1}`)})
		stream.EncodeFrame(w, stream.Frame{ID: 2, Event: "done", Data: []byte(done)})
	default:
		http.NotFound(w, r)
	}
}

func testClient(url string) *client {
	return &client{hc: newHTTPClient(), base: url, reqSeq: new(atomic.Int64)}
}

func TestFailedFracCountsRefusedAndServerErrors(t *testing.T) {
	po, err := newPointOracle(runPoint(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeServer{}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	c := testClient(srv.URL)

	var tl tally
	var lat sample
	for _, tc := range []struct {
		status int
		body   []byte
	}{
		{http.StatusOK, po.want},                                    // correct answer
		{http.StatusServiceUnavailable, []byte(`{"error":"full"}`)}, // refused
		{http.StatusInternalServerError, []byte(`{"error":"boom"}`)},
		{http.StatusOK, bytes.Replace(po.want, []byte(`"detected_at":`), []byte(`"detected_at":1`), 1)}, // wrong answer
	} {
		fake.runStatus, fake.runBody = tc.status, tc.body
		ot, err := c.runOp(context.Background(), po)
		tl.record(err)
		lat.addResult(ot.latency, err)
	}
	attempted, failed, first := tl.counts()
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", attempted, failed)
	}
	if got := tl.failedFrac(); got != 0.75 {
		t.Errorf("failed_frac = %v, want 0.75", got)
	}
	if !strings.Contains(first, "status 503") {
		t.Errorf("first failure %q should name the refused request", first)
	}
	if got := median(lat); !math.IsInf(got, 1) {
		t.Errorf("p50 with 3 of 4 failed = %v, want +Inf", got)
	}
}

func TestAggregateOracleRejectsTamperedAggregate(t *testing.T) {
	so, err := newSpecOracle(context.Background(), smallSpec(7), 2)
	if err != nil {
		t.Fatal(err)
	}
	var agg campaign.Aggregate
	if err := json.Unmarshal(so.want, &agg); err != nil {
		t.Fatal(err)
	}
	agg.Detected--
	tampered, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeServer{jobs: so.jobs}
	srv := httptest.NewServer(fake)
	defer srv.Close()
	c := testClient(srv.URL)
	for _, dist := range []bool{false, true} {
		fake.aggregate = so.want
		if _, err := c.campaignOp(context.Background(), so, dist); err != nil {
			t.Errorf("dist=%v: the true aggregate was rejected: %v", dist, err)
		}
		fake.aggregate = tampered
		if _, err := c.campaignOp(context.Background(), so, dist); err == nil {
			t.Errorf("dist=%v: a tampered aggregate was accepted", dist)
		}
	}
}

func TestServiceProbeFailsWithoutServerSpans(t *testing.T) {
	ctx := context.Background()
	po, err := newPointOracle(runPoint(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	so, err := newSpecOracle(ctx, smallSpec(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every answer is right, but /debug/traces returns no spans.
	fake := &fakeServer{runStatus: http.StatusOK, runBody: po.want, aggregate: so.want, jobs: so.jobs}
	ts := httptest.NewServer(fake)
	defer ts.Close()
	srv := &server{base: ts.URL, debug: ts.URL, stderr: &tailWriter{max: 1 << 10}}
	srv.stderr.Write([]byte("server log line"))
	orc := &oracles{points: []pointOracle{po}, specs: []specOracle{so}}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var tl tally
	m := map[string]metric{}
	err = serviceProbe(ctx, srv, orc, hc, &recorder{}, &tl, m)
	if err == nil {
		t.Fatalf("probe without server spans succeeded with %v", m)
	}
	if !strings.Contains(err.Error(), "no sim.run span") || !strings.Contains(err.Error(), "server log line") {
		t.Errorf("error %q should name the missing span and carry the server's stderr tail", err)
	}
	if _, failed, first := tl.counts(); failed != 0 {
		t.Errorf("%d operations failed (%s); only the spans were missing", failed, first)
	}
}

func TestSeedChangesInputsNotInvariants(t *testing.T) {
	if inputSeed(1, streamRuns, 0) == inputSeed(2, streamRuns, 0) {
		t.Error("run seeds do not depend on the workload seed")
	}
	if inputSeed(1, streamRuns, 0) == inputSeed(1, streamMusicRuns, 0) {
		t.Error("two seed streams share a seed")
	}
	if runPoint(1, 3).Seed == runPoint(2, 3).Seed || gridSpec(1, 0).BaseSeed == gridSpec(2, 0).BaseSeed {
		t.Error("service inputs do not depend on the workload seed")
	}
	if a, b := runPoint(1, 3), runPoint(1, 3); a != b {
		t.Error("the same seed gave different inputs")
	}
	for _, seed := range []int64{1, 2} {
		w := newInProcess(seed, false)
		if _, err := w.setup(context.Background()); err != nil {
			t.Fatal(err)
		}
		var tl tally
		lr, err := w.loop(context.Background(), 300*time.Millisecond, nil, &tl)
		if err != nil {
			t.Fatal(err)
		}
		if _, failed, first := tl.counts(); failed != 0 || lr.runs == 0 {
			t.Errorf("seed %d: %d runs, %d failed (%s)", seed, lr.runs, failed, first)
		}
		if len(lr.rates) != len(lr.batch) || median(lr.rates) <= 0 {
			t.Errorf("seed %d: %d cycle rates over %d cycles, median %v", seed, len(lr.rates), len(lr.batch), median(lr.rates))
		}
	}
	a, err := newSpecOracle(context.Background(), smallSpec(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSpecOracle(context.Background(), smallSpec(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.want, b.want) {
		t.Error("campaign aggregates of two seeds are identical: the seed does not reach the grid")
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
