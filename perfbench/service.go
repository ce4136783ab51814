package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
	obstrace "safesense/internal/obs/trace"
)

// Service workload shape: the closed-loop client repeats a cycle of
// runsPerCycle POST /v1/run requests and one campaign followed to done.
const (
	runsPerCycle = 8
	pointPool    = 32 // distinct /v1/run points, cycled
	specPool     = 8  // distinct campaign specs, cycled
	leaseJobs    = 10 // jobs per distributed lease
	serverStarts = 9  // set-up repetitions; the last server is measured
)

// gridSpec is the Fig 2/3 campaign grid: attacks none/dos/delay × both
// leaders × onsets 175 and 182 × 4 seeds = 40 jobs of about 1 ms each.
func gridSpec(seed int64, i int) campaign.Spec {
	return campaign.Spec{
		Name:       "perfbench-" + strconv.Itoa(i),
		Steps:      301,
		BaseSeed:   inputSeed(seed, streamSpecs, i),
		Replicates: 4,
		Attacks:    []string{campaign.AttackNone, campaign.AttackDoS, campaign.AttackDelay},
		Leaders:    []string{campaign.LeaderConst, campaign.LeaderPhased},
		Onsets:     []int{175, 182},
	}
}

// runPoint is the i-th /v1/run request: one grid point of the same
// axes, with its own derived seed.
func runPoint(seed int64, i int) campaign.Point {
	attacks := []string{campaign.AttackNone, campaign.AttackDoS, campaign.AttackDelay}
	leaders := []string{campaign.LeaderConst, campaign.LeaderPhased}
	onsets := []int{175, 182}
	p := campaign.Point{
		Attack:   attacks[i%3],
		Leader:   leaders[(i/3)%2],
		Schedule: campaign.ScheduleSpec{Kind: "paper"},
		Onset:    onsets[(i/6)%2],
		Steps:    301,
		Seed:     inputSeed(seed, streamPoints, i),
		Defended: true,
	}
	switch p.Attack {
	case campaign.AttackDoS:
		p.JammerMW = 100
	case campaign.AttackDelay:
		p.OffsetM = 6
	}
	return p
}

// oracles holds the precomputed expected answers of the service cycle.
type oracles struct {
	points []pointOracle
	specs  []specOracle
}

func newOracles(ctx context.Context, seed int64) (*oracles, error) {
	o := &oracles{}
	for i := 0; i < pointPool; i++ {
		po, err := newPointOracle(runPoint(seed, i))
		if err != nil {
			return nil, fmt.Errorf("run oracle: %w", err)
		}
		o.points = append(o.points, po)
	}
	for i := 0; i < specPool; i++ {
		so, err := newSpecOracle(ctx, gridSpec(seed, i), 1)
		if err != nil {
			return nil, fmt.Errorf("aggregate oracle: %w", err)
		}
		o.specs = append(o.specs, so)
	}
	return o, nil
}

// client drives one server over HTTP/JSON. With a recorder it sends a
// fresh X-Request-ID per operation, wraps the operation in a client
// span and stitches the server's spans for that ID under it.
type client struct {
	hc     *http.Client
	base   string
	rec    *recorder
	reqSeq *atomic.Int64
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{DisableCompression: true},
	}
}

// requestID returns the next request ID when tracing, "" otherwise.
func (c *client) requestID() string {
	if c.rec == nil {
		return ""
	}
	return "perfbench-" + strconv.FormatInt(c.reqSeq.Add(1), 10)
}

// httpStatusError is a non-success answer: refused (4xx) or failed (5xx).
type httpStatusError struct {
	method, path string
	status       int
	body         string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.status, e.body)
}

// do sends one request and returns the body of a response with the
// wanted status; any other status is an *httpStatusError.
func (c *client) do(ctx context.Context, method, path, reqID string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, &httpStatusError{method: method, path: path, status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return data, nil
}

// serverSpans fetches the server's spans of one request ID.
func (c *client) serverSpans(ctx context.Context, reqID string) ([]obstrace.SpanRecord, error) {
	data, err := c.do(ctx, http.MethodGet, "/debug/traces?trace="+reqID, "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var v struct {
		Spans []obstrace.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	return v.Spans, nil
}

// opTrace is what the traced service probe learns from one operation.
type opTrace struct {
	latency time.Duration
	submit  time.Duration // campaign submit request latency
	doneAt  time.Time     // arrival of the done frame
	leases  int           // "granted" lease frames
	regrant int           // granted frames re-granting an expired lease
	spans   []obstrace.SpanRecord
}

// runOp posts one /v1/run request and checks the answer.
func (c *client) runOp(ctx context.Context, o pointOracle) (opTrace, error) {
	reqID := c.requestID()
	sp := c.rec.start("bench.run", "", reqID)
	t0 := time.Now()
	data, err := c.do(ctx, http.MethodPost, "/v1/run", reqID, o.body, http.StatusOK)
	ot := opTrace{latency: time.Since(t0)}
	sp.end()
	if err != nil {
		return ot, err
	}
	if err := o.check(data); err != nil {
		return ot, err
	}
	return ot, c.collect(ctx, sp, reqID, &ot)
}

// collect stitches the server's spans of reqID under sp when tracing.
func (c *client) collect(ctx context.Context, sp *span, reqID string, ot *opTrace) error {
	if c.rec == nil {
		return nil
	}
	spans, err := c.serverSpans(ctx, reqID)
	if err != nil {
		return err
	}
	ot.spans = spans
	c.rec.stitch(sp.id(), reqID, spans)
	return nil
}

// campaignOp submits one campaign — local, or distributed when dist is
// set — follows its stream to the done frame and checks the aggregate.
func (c *client) campaignOp(ctx context.Context, o specOracle, dist bool) (opTrace, error) {
	kind, path, body := "local", "/v1/campaigns", map[string]any{"spec": o.spec}
	if dist {
		kind, path = "dist", "/v1/dist/campaigns"
		body["lease_jobs"] = leaseJobs
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return opTrace{}, err
	}
	reqID := c.requestID()
	sp := c.rec.start("bench."+kind+"_campaign", "", reqID)
	t0 := time.Now()
	data, err := c.do(ctx, http.MethodPost, path, reqID, payload, http.StatusAccepted)
	ot := opTrace{submit: time.Since(t0)}
	if err != nil {
		sp.end()
		return ot, err
	}
	var sub struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		sp.end()
		return ot, fmt.Errorf("%s submit: decoding: %w", kind, err)
	}
	agg, err := c.followToDone(ctx, path+"/"+sub.ID+"/stream", reqID, &ot)
	ot.latency = time.Since(t0)
	sp.end()
	if err != nil {
		return ot, fmt.Errorf("%s campaign %s: %w", kind, sub.ID, err)
	}
	if sub.Jobs != o.jobs {
		return ot, fmt.Errorf("%s campaign %s: %d jobs, want %d", kind, sub.ID, sub.Jobs, o.jobs)
	}
	if err := o.check(kind, agg); err != nil {
		return ot, err
	}
	return ot, c.collect(ctx, sp, reqID, &ot)
}

// followToDone reads a campaign's SSE stream until its done frame and
// returns the frame's aggregate bytes.
func (c *client) followToDone(ctx context.Context, path, reqID string, ot *opTrace) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, &httpStatusError{method: http.MethodGet, path: path, status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	dec := stream.NewDecoder(resp.Body)
	for {
		f, err := dec.Next()
		if err != nil {
			return nil, fmt.Errorf("stream ended before its done frame: %w", err)
		}
		switch f.Event {
		case "lease":
			var l struct {
				State  string `json:"state"`
				Grants int    `json:"grants"`
			}
			if json.Unmarshal(f.Data, &l) == nil && l.State == "granted" {
				ot.leases++
				if l.Grants > 1 {
					ot.regrant++
				}
			}
		case "done":
			ot.doneAt = time.Now()
			var d struct {
				Status    string          `json:"status"`
				Error     string          `json:"error"`
				Aggregate json.RawMessage `json:"aggregate"`
			}
			if err := json.Unmarshal(f.Data, &d); err != nil {
				return nil, fmt.Errorf("decoding done frame: %w", err)
			}
			if d.Status != "" && d.Status != "done" {
				return nil, fmt.Errorf("campaign ended %s: %s", d.Status, d.Error)
			}
			return d.Aggregate, nil
		}
	}
}

// service is the service_campaigns and service_dist_campaigns workload:
// the real safesensed binary on loopback, joined to itself as a dist
// worker, driven by one closed-loop HTTP client from this process.
type service struct {
	cfg  config
	dist bool
	srv  *server
	orc  *oracles
	hc   *http.Client
	seq  atomic.Int64
}

func newService(c config, dist bool) *service {
	return &service{cfg: c, dist: dist, hc: newHTTPClient()}
}

// setup starts the server serverStarts times, timing exec to healthy;
// the last one stays up. The oracles are computed afterwards, outside
// the timed set-up.
func (w *service) setup(ctx context.Context) ([]time.Duration, error) {
	var times []time.Duration
	for i := 0; i < serverStarts; i++ {
		srv, d, err := startServer(ctx, w.cfg.serverBin, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		if i < serverStarts-1 {
			srv.stop()
		} else {
			w.srv = srv
		}
	}
	orc, err := newOracles(ctx, w.cfg.seed)
	if err != nil {
		return nil, err
	}
	w.orc = orc
	runtime.GC()
	return times, nil
}

func (w *service) close() {
	w.hc.CloseIdleConnections()
	if w.srv != nil {
		w.srv.stop()
	}
}

func (w *service) client(rec *recorder) *client {
	return &client{hc: w.hc, base: w.srv.base, rec: rec, reqSeq: &w.seq}
}

// loop runs one closed-loop client for about d: each cycle is
// runsPerCycle /v1/run requests and one campaign followed to done.
func (w *service) loop(ctx context.Context, d time.Duration, rec *recorder, t *tally) (*loopResult, error) {
	m0, err := w.srv.memstats(ctx, w.hc)
	if err != nil {
		return nil, w.srv.failure(err)
	}
	lr := &loopResult{}
	c := w.client(rec)
	start := time.Now()
	for cycle := 0; time.Since(start) < d && ctx.Err() == nil; cycle++ {
		c0 := time.Now()
		done := 0 // runs and campaign jobs completed in this cycle
		for r := 0; r < runsPerCycle; r++ {
			ot, err := c.runOp(ctx, w.orc.points[(cycle*runsPerCycle+r)%len(w.orc.points)])
			t.record(err)
			lr.run.addResult(ot.latency, err)
			if err == nil {
				done++
			}
		}
		so := w.orc.specs[cycle%len(w.orc.specs)]
		ot, err := c.campaignOp(ctx, so, w.dist)
		t.record(err)
		lr.batch.addResult(ot.latency, err)
		if err == nil {
			done += so.jobs
		}
		lr.runs += done
		lr.rates = append(lr.rates, float64(done)/time.Since(c0).Seconds())
	}
	lr.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m1, err := w.srv.memstats(ctx, w.hc)
	if err != nil {
		return nil, w.srv.failure(err)
	}
	lr.perRuns = lr.runs
	lr.allocs = m1.Mallocs - m0.Mallocs
	lr.bytes = m1.TotalAlloc - m0.TotalAlloc
	lr.gcs = m1.NumGC - m0.NumGC
	if _, failed, _ := t.counts(); failed > 0 {
		select {
		case <-w.srv.exited:
			return nil, w.srv.failure(errors.New("safesensed exited during the run"))
		default:
			fmt.Fprintf(os.Stderr, "perfbench: %d failed operations\n--- safesensed stderr tail ---\n%s\n", failed, w.srv.stderr)
		}
	}
	return lr, nil
}
