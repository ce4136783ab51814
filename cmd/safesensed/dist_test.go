package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/dist"
	"safesense/internal/obs/stream"
)

// startWorker joins an in-process dist worker to the server at url; it
// pulls leases until ctx ends, then closes the returned channel.
func startWorker(t *testing.T, ctx context.Context, url string) <-chan struct{} {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator:  url,
		ID:           "through-server",
		Jobs:         2,
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return done
}

// TestDistEndpointsThroughServer runs a distributed campaign against the
// full safesensed handler stack — coordinator routes mounted behind the
// observability middleware — with a real worker joined to the server's
// own URL, and checks the merged summary against the single-node run.
func TestDistEndpointsThroughServer(t *testing.T) {
	coord := dist.NewCoordinator(dist.Config{LeaseJobs: 3, LeaseTTL: time.Minute})
	_, ts := newTestServer(t, Config{Dist: coord})

	spec := campaign.Spec{
		Name:       "dist-through-server",
		Steps:      50,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackNone},
		Onsets:     []int{15, 30},
		Replicates: 3,
	}

	sub := decodeJSON[dist.SubmitResponse](t,
		postJSON(t, ts.URL+"/v1/dist/campaigns", dist.SubmitRequest{Spec: spec}),
		http.StatusAccepted)
	if sub.Jobs == 0 || sub.Leases < 2 {
		t.Fatalf("submission too small to exercise sharding: %+v", sub)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	workerDone := startWorker(t, ctx, ts.URL)

	var st dist.Status
	for {
		res, err := http.Get(ts.URL + "/v1/dist/campaigns/" + sub.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		err = json.NewDecoder(res.Body).Decode(&st)
		res.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.Status == dist.StatusDone {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("campaign did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-workerDone

	if st.Summary == nil {
		t.Fatal("done campaign has no summary")
	}
	got, err := json.Marshal(st.Summary.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	want, err := json.Marshal(oracle.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("distributed aggregate diverges from oracle\n got: %s\nwant: %s", got, want)
	}

	// The middleware fronts the dist routes: the status response carries
	// an echoed request ID.
	res, err := http.Get(ts.URL + "/v1/dist/campaigns/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.Header.Get("X-Request-ID") == "" {
		t.Fatal("dist route bypasses the observability middleware: no X-Request-ID echoed")
	}
}

// jobGate is a log handler that holds every engine "campaign job done"
// record until release closes, so no job of a local campaign can report
// (and publish) before a stream subscriber has attached.
type jobGate struct {
	release chan struct{}
	once    sync.Once
}

func (g *jobGate) open()                                    { g.once.Do(func() { close(g.release) }) }
func (g *jobGate) Enabled(context.Context, slog.Level) bool { return true }
func (g *jobGate) WithAttrs([]slog.Attr) slog.Handler       { return g }
func (g *jobGate) WithGroup(string) slog.Handler            { return g }
func (g *jobGate) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "campaign job done" {
		<-g.release
	}
	return nil
}

// followIncidents reads an SSE campaign feed to its terminal frame and
// returns the flight frames' incidents, sorted by sortIncidents.
func followIncidents(t *testing.T, resp *http.Response) []campaign.Incident {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	var out []campaign.Incident
	dec := stream.NewDecoder(resp.Body)
	for {
		fr, err := dec.Next()
		if err != nil {
			t.Fatalf("decoding feed after %d incidents: %v", len(out), err)
		}
		switch fr.Event {
		case campaign.FeedFlight:
			var in campaign.Incident
			if err := json.Unmarshal(fr.Data, &in); err != nil {
				t.Fatalf("flight frame %s: %v", fr.Data, err)
			}
			out = append(out, in)
		case campaign.FeedDone:
			sortIncidents(out)
			return out
		}
	}
}

// sortIncidents orders incidents by job, kind and detail, so two feeds'
// multisets compare with reflect.DeepEqual.
func sortIncidents(ins []campaign.Incident) {
	sort.Slice(ins, func(i, j int) bool {
		a, b := ins[i], ins[j]
		if a.JobIndex != b.JobIndex {
			return a.JobIndex < b.JobIndex
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
}

// TestFeedParity runs one collision-bearing spec as a local and as a
// distributed campaign, follows both /stream feeds, and requires their
// flight frames to carry the same multiset of incidents — and that
// multiset to be the oracle's campaign.Incidents.
func TestFeedParity(t *testing.T) {
	gate := &jobGate{release: make(chan struct{})}
	_, ts := newTestServer(t, Config{Log: slog.New(gate)})
	t.Cleanup(gate.open) // runs before the server's drain

	off := false
	spec := campaign.Spec{
		Name:       "feed-parity",
		Steps:      200,
		BaseSeed:   7,
		Replicates: 3,
		Defended:   &off,
		Attacks:    []string{campaign.AttackDoS, campaign.AttackNone},
		Onsets:     []int{150, 170},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	follow := func(path string) *http.Response {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	// Local: the gate holds every job until the subscriber is attached.
	ack := decodeJSON[SubmitResponse](t, postJSON(t, ts.URL+"/v1/campaigns",
		SubmitRequest{Spec: spec, Workers: 2}), http.StatusAccepted)
	localResp := follow("/v1/campaigns/" + ack.ID + "/stream")
	gate.open()
	local := followIncidents(t, localResp)

	// Distributed: no lease runs before the worker joins.
	sub := decodeJSON[dist.SubmitResponse](t,
		postJSON(t, ts.URL+"/v1/dist/campaigns", dist.SubmitRequest{Spec: spec, LeaseJobs: 3}),
		http.StatusAccepted)
	distResp := follow("/v1/dist/campaigns/" + sub.ID + "/stream")
	workerDone := startWorker(t, ctx, ts.URL)
	distributed := followIncidents(t, distResp)
	cancel()
	<-workerDone

	oracle, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatalf("oracle Run: %v", err)
	}
	var want []campaign.Incident
	for _, o := range oracle.Outcomes {
		want = append(want, campaign.Incidents(o)...)
	}
	sortIncidents(want)
	collisions := 0
	for _, in := range want {
		if in.Kind == campaign.IncidentCollision {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatalf("spec produced no collisions; the parity check needs one (incidents %+v)", want)
	}
	if !reflect.DeepEqual(local, distributed) {
		t.Fatalf("local and distributed feeds disagree\n local: %+v\n  dist: %+v", local, distributed)
	}
	if !reflect.DeepEqual(local, want) {
		t.Fatalf("feeds disagree with the oracle's incidents\n feed: %+v\n want: %+v", local, want)
	}
}
