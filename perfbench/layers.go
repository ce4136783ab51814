package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"safesense/internal/acc"
	"safesense/internal/campaign"
	"safesense/internal/cra"
	"safesense/internal/dsp/fft"
	"safesense/internal/dsp/music"
	"safesense/internal/dsp/spectrum"
	"safesense/internal/dsp/window"
	"safesense/internal/estimate"
	"safesense/internal/noise"
	"safesense/internal/obs"
	"safesense/internal/obs/profile"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/prbs"
	"safesense/internal/radar"
	"safesense/internal/sim"
)

// Workload groups used in the per-layer table.
const (
	onClosed  = wlClosedForm
	onSignal  = wlSignalLevel
	onLocal   = wlServiceLocal
	onDist    = wlServiceDist
	onService = wlServiceLocal + "," + wlServiceDist
	onFigures = wlClosedForm + "," + wlSignalLevel
)

// perLayer lists the metrics every traced run reports, each with the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "sim.run_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onFigures},
	{Name: "sim.phase.radar_synthesis_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onFigures},
	{Name: "sim.phase.beat_extraction_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onSignal},
	{Name: "sim.phase.cra_check_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "sim.phase.rls_estimation_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "sim.phase.vehicle_step_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "sim.unattributed_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms,allocs_per_run", Workload: onClosed},
	{Name: "sim.rls_time_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "sim.gc_cycles_per_1k_runs", Unit: "count", Better: "lower", Target: "run_p50_ms,allocs_per_run", Workload: onFigures},
	{Name: "sim.collision_frac", Unit: "ratio", Better: "lower", Target: "none (defense envelope)", Workload: onSignal},

	{Name: "estimate.observe_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "estimate.observe_allocs", Unit: "count", Better: "lower", Target: "allocs_per_run", Workload: onClosed},
	{Name: "estimate.predict_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "estimate.clone_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "estimate.rls_update_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},

	{Name: "radar.frontend_observe_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "radar.frontend_observe_allocs", Unit: "count", Better: "lower", Target: "allocs_per_run", Workload: onClosed},
	{Name: "radar.observe_sweep_us", Unit: "us", Better: "lower", Target: "run_p50_ms,batch_p50_ms", Workload: onSignal},
	{Name: "radar.observe_sweep_kb", Unit: "KiB", Better: "lower", Target: "alloc_kb_per_run", Workload: onSignal},
	{Name: "radar.measure_fft_us", Unit: "us", Better: "lower", Target: "run_p50_ms", Workload: onSignal},
	{Name: "radar.measure_music_us", Unit: "us", Better: "lower", Target: "batch_p50_ms", Workload: onSignal},

	{Name: "dsp.periodogram_us", Unit: "us", Better: "lower", Target: "run_p50_ms", Workload: onSignal},
	{Name: "dsp.find_peaks_us", Unit: "us", Better: "lower", Target: "run_p50_ms", Workload: onSignal},
	{Name: "dsp.fft_us", Unit: "us", Better: "lower", Target: "run_p50_ms", Workload: onSignal},
	{Name: "dsp.music_frequencies_us", Unit: "us", Better: "lower", Target: "batch_p50_ms", Workload: onSignal},

	{Name: "cra.step_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "acc.controller_step_ns", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "acc.controller_step_allocs", Unit: "count", Better: "lower", Target: "allocs_per_run", Workload: onClosed},

	{Name: "obs.timer_ns_per_call", Unit: "ns", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "obs.timer_ms_per_run", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "obs.profile_labels_overhead_pct", Unit: "%", Better: "lower", Target: "run_p50_ms", Workload: onClosed},
	{Name: "obs.trace_span_overhead_pct", Unit: "%", Better: "lower", Target: "run_p50_ms", Workload: onClosed},

	{Name: "campaign.jobs_per_s", Unit: "1/s", Better: "higher", Target: "runs_per_s", Workload: onService},
	{Name: "campaign.queue_wait_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onService},
	{Name: "campaign.aggregate_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onService},
	{Name: "campaign.job_overhead_ms", Unit: "ms", Better: "lower", Target: "runs_per_s,batch_p50_ms", Workload: onService},
	{Name: "campaign.pool_busy_frac", Unit: "ratio", Better: "higher", Target: "runs_per_s", Workload: onLocal},

	{Name: "safesensed.run_overhead_ms", Unit: "ms", Better: "lower", Target: "run_p50_ms", Workload: onService},
	{Name: "safesensed.submit_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onLocal},
	{Name: "safesensed.done_notify_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onLocal},
	{Name: "safesensed.gc_cycles_per_1k_jobs", Unit: "count", Better: "lower", Target: "run_p50_ms", Workload: onService},

	{Name: "dist.submit_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onDist},
	{Name: "dist.lease_wait_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onDist},
	{Name: "dist.regrant_frac", Unit: "ratio", Better: "lower", Target: "batch_p50_ms", Workload: onDist},
	{Name: "dist.merge_lag_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onDist},
	{Name: "dist.overhead_ms", Unit: "ms", Better: "lower", Target: "batch_p50_ms", Workload: onDist},

	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower", Target: "none (cost of the traced run)", Workload: "all"},
}

// tracedChunks is how many alternating untraced and traced slices the
// traced run's window is cut into, so drift hits both sides alike. A
// signal-level slice lasts at least one four-cycle group (about 10 s).
const tracedChunks = 4

// measureLayers is the traced run: the window alternates untraced and
// traced slices (their difference is the tracing overhead), then the
// layer probes run, the same on every workload.
func measureLayers(ctx context.Context, c config, w workload, window time.Duration, t *tally, out io.Writer) (map[string]metric, error) {
	if _, err := w.setup(ctx); err != nil {
		return nil, err
	}
	rec := &recorder{}
	var plain, traced loopResult
	for i := 0; i < tracedChunks; i++ {
		r := rec
		if i%2 == 0 {
			r = nil
		}
		lr, err := w.loop(ctx, window/tracedChunks, r, t)
		if err != nil {
			return nil, err
		}
		if r == nil {
			plain.run = append(plain.run, lr.run...)
			continue
		}
		traced.run = append(traced.run, lr.run...)
		traced.sim.merge(lr.sim)
		traced.gcs += lr.gcs
		traced.perRuns += lr.perRuns
	}
	m := map[string]metric{}
	base := median(plain.run)
	m["bench.tracing_overhead_pct"] = metric{(median(traced.run) - base) / base * 100, "%"}

	var err error
	agg, gcs, runs := traced.sim, traced.gcs, traced.perRuns
	if svc, ok := w.(*service); ok {
		// The service loop runs the simulator in the server; replay
		// its points in-process for the sim layer's breakdown.
		agg, gcs, runs, err = simPass(ctx, c.seed, rec, t)
		if err != nil {
			return nil, err
		}
		err = serviceProbe(ctx, svc.srv, svc.orc, svc.hc, rec, t, m)
	} else {
		err = withProbeServer(ctx, c, rec, t, m)
	}
	if err != nil {
		return nil, err
	}
	if agg.runs == 0 {
		return nil, errors.New("traced run completed no simulator run")
	}
	addSimMetrics(m, agg, gcs, runs)
	if err := kernelProbes(ctx, c.seed, rec, agg, m); err != nil {
		return nil, err
	}
	if err := campaignThroughput(ctx, c, rec, m); err != nil {
		return nil, err
	}

	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return nil, fmt.Errorf("traced run produced no value for %s", d.Name)
		}
	}
	spans := rec.snapshot()
	printSelfTimes(out, spans)
	fmt.Fprintln(out, "per-layer metrics:")
	printMetrics(out, perLayer, m)
	path := filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return m, nil
}

// simPass runs each service /v1/run point in-process, three times over.
func simPass(ctx context.Context, seed int64, rec *recorder, t *tally) (simAgg, uint32, int, error) {
	var agg simAgg
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	runs := 0
	for r := 0; r < 3; r++ {
		for i := 0; i < pointPool; i++ {
			s, err := runPoint(seed, i).Scenario()
			if err != nil {
				return agg, 0, 0, err
			}
			sp := rec.start("sim.run", "", "")
			t0 := time.Now()
			res, err := sim.RunContext(ctx, s)
			d := time.Since(t0)
			sp.end()
			t.record(err)
			if err != nil {
				continue
			}
			agg.add(res, d)
			runs++
		}
	}
	runtime.ReadMemStats(&m1)
	return agg, m1.NumGC - m0.NumGC, runs, nil
}

// addSimMetrics derives the sim layer's per-run means.
func addSimMetrics(m map[string]metric, a simAgg, gcs uint32, runs int) {
	n := float64(max(a.runs, 1))
	perRun := func(sec float64) float64 { return sec * 1e3 / n }
	m["sim.run_ms"] = metric{perRun(a.wall.Seconds()), "ms"}
	phased := 0.0
	for _, p := range sim.PhaseNames() {
		m["sim.phase."+p+"_ms"] = metric{perRun(a.phaseSec[p]), "ms"}
		phased += a.phaseSec[p]
	}
	m["sim.unattributed_ms"] = metric{perRun(a.wall.Seconds() - phased), "ms"}
	m["sim.rls_time_ms"] = metric{perRun(a.rls.Seconds()), "ms"}
	m["sim.gc_cycles_per_1k_runs"] = metric{float64(gcs) * 1000 / float64(max(runs, 1)), "count"}
	m["sim.collision_frac"] = metric{float64(a.collisions) / n, "ratio"}
}

// withProbeServer starts a server for the service probe of an
// in-process workload and always stops it.
func withProbeServer(ctx context.Context, c config, rec *recorder, t *tally, m map[string]metric) error {
	srv, _, err := startServer(ctx, c.serverBin, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	defer srv.stop()
	orc, err := newOracles(ctx, c.seed)
	if err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	return serviceProbe(ctx, srv, orc, hc, rec, t, m)
}

// probeCycles is how many traced service cycles the probe runs.
const probeCycles = 6

// serviceProbe runs probeCycles traced cycles of runs, one local and one
// distributed campaign from a single client, and reads the campaign,
// safesensed and dist layers off the server's spans.
func serviceProbe(ctx context.Context, srv *server, orc *oracles, hc *http.Client, rec *recorder, t *tally, m map[string]metric) error {
	var seq atomic.Int64
	c := &client{hc: hc, base: srv.base, rec: rec, reqSeq: &seq}
	m0, err := srv.memstats(ctx, hc)
	if err != nil {
		return srv.failure(err)
	}
	var runOverhead, submit, doneNotify, queueWait, aggregate, jobOverhead []float64
	var distSubmit, leaseWait, mergeLag []float64
	var local, distributed sample
	var busy, capacity float64
	leases, regrants, jobs := 0, 0, 0
	for cycle := 0; cycle < probeCycles && ctx.Err() == nil; cycle++ {
		for r := 0; r < runsPerCycle; r++ {
			ot, err := c.runOp(ctx, orc.points[(cycle*runsPerCycle+r)%len(orc.points)])
			t.record(err)
			jobs++
			if run := spansNamed(ot.spans, "sim.run"); err == nil && len(run) > 0 {
				runOverhead = append(runOverhead, ms(ot.latency)-run[0].DurationSeconds*1e3)
			}
		}
		so := orc.specs[cycle%len(orc.specs)]
		ot, err := c.campaignOp(ctx, so, false)
		t.record(err)
		if err == nil {
			jobs += so.jobs
			local.add(ot.latency)
			submit = append(submit, ms(ot.submit))
			for _, r := range spansNamed(ot.spans, "campaign.run") {
				doneNotify = append(doneNotify, ms(ot.doneAt.Sub(spanEnd(r))))
				workers, _ := strconv.Atoi(attr(r, "workers"))
				capacity += float64(workers) * r.DurationSeconds
			}
			for _, q := range spansNamed(ot.spans, "campaign.queue_wait") {
				queueWait = append(queueWait, q.DurationSeconds*1e3)
			}
			for _, a := range spansNamed(ot.spans, "campaign.aggregate") {
				aggregate = append(aggregate, a.DurationSeconds*1e3)
			}
			for _, j := range spansNamed(ot.spans, "campaign.job") {
				busy += j.DurationSeconds
				for _, s := range ot.spans {
					if s.ParentID == j.SpanID && s.Name == "sim.run" {
						jobOverhead = append(jobOverhead, (j.DurationSeconds-s.DurationSeconds)*1e3)
					}
				}
			}
		}
		ot, err = c.campaignOp(ctx, so, true)
		t.record(err)
		if err == nil {
			jobs += so.jobs
			distributed.add(ot.latency)
			distSubmit = append(distSubmit, ms(ot.submit))
			leases += ot.leases
			regrants += ot.regrant
			camp := spansNamed(ot.spans, "dist.campaign")
			ls := spansNamed(ot.spans, "dist.lease")
			if len(camp) > 0 && len(ls) > 0 {
				first, last := ls[0].Start, spanEnd(ls[0])
				for _, l := range ls[1:] {
					if l.Start.Before(first) {
						first = l.Start
					}
					if e := spanEnd(l); e.After(last) {
						last = e
					}
				}
				leaseWait = append(leaseWait, ms(first.Sub(camp[0].Start)))
				mergeLag = append(mergeLag, ms(ot.doneAt.Sub(last)))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m1, err := srv.memstats(ctx, hc)
	if err != nil {
		return srv.failure(err)
	}
	// Every metric below needs spans or frames the server must have
	// sent; a renamed or unsampled span fails the probe rather than
	// reading as 0.
	for _, need := range []struct {
		what string
		n    int
	}{
		{"sim.run span under a /v1/run request", len(runOverhead)},
		{"completed local campaign", len(local)},
		{"campaign.run span", len(doneNotify)},
		{"campaign.queue_wait span", len(queueWait)},
		{"campaign.aggregate span", len(aggregate)},
		{"sim.run span under a campaign.job span", len(jobOverhead)},
		{"completed distributed campaign", len(distributed)},
		{"dist.campaign span with dist.lease spans", len(leaseWait)},
		{"granted lease frame on the dist stream", leases},
	} {
		if need.n == 0 {
			return srv.failure(fmt.Errorf("traced service probe: the server reported no %s", need.what))
		}
	}
	if capacity <= 0 || busy <= 0 {
		return srv.failure(errors.New("traced service probe: campaign spans carry no job time or worker count"))
	}
	m["campaign.queue_wait_ms"] = metric{mean(queueWait), "ms"}
	m["campaign.aggregate_ms"] = metric{mean(aggregate), "ms"}
	m["campaign.job_overhead_ms"] = metric{mean(jobOverhead), "ms"}
	m["campaign.pool_busy_frac"] = metric{busy / capacity, "ratio"}
	m["safesensed.run_overhead_ms"] = metric{median(runOverhead), "ms"}
	m["safesensed.submit_ms"] = metric{median(submit), "ms"}
	m["safesensed.done_notify_ms"] = metric{median(doneNotify), "ms"}
	m["safesensed.gc_cycles_per_1k_jobs"] = metric{float64(m1.NumGC-m0.NumGC) * 1000 / float64(max(jobs, 1)), "count"}
	m["dist.submit_ms"] = metric{median(distSubmit), "ms"}
	m["dist.lease_wait_ms"] = metric{median(leaseWait), "ms"}
	m["dist.regrant_frac"] = metric{float64(regrants) / float64(max(leases, 1)), "ratio"}
	m["dist.merge_lag_ms"] = metric{median(mergeLag), "ms"}
	m["dist.overhead_ms"] = metric{median(distributed) - median(local), "ms"}
	return nil
}

// campaignThroughput times in-process campaign.Run of the service grid.
func campaignThroughput(ctx context.Context, c config, rec *recorder, m map[string]metric) error {
	var rates []float64
	for i := 0; i < 3; i++ {
		sp := rec.start("campaign.probe_run", "", "")
		t0 := time.Now()
		sum, err := campaign.Run(ctx, gridSpec(c.seed, i), campaign.Options{Workers: 1, DiscardOutcomes: true})
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return fmt.Errorf("campaign probe: %w", err)
		}
		rates = append(rates, float64(sum.Aggregate.Jobs)/d.Seconds())
	}
	m["campaign.jobs_per_s"] = metric{median(rates), "1/s"}
	return nil
}

func spansNamed(spans []obstrace.SpanRecord, name string) []obstrace.SpanRecord {
	var out []obstrace.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func spanEnd(s obstrace.SpanRecord) time.Time {
	return s.Start.Add(time.Duration(s.DurationSeconds * float64(time.Second)))
}

func attr(s obstrace.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cost is one probed operation's median time and mean heap allocation
// per call.
type cost struct {
	ns, allocs, bytes float64
}

// probeBudget bounds the time one probe measures.
const probeBudget = 150 * time.Millisecond

// sinkF keeps probed results alive so no call is optimized away.
var sinkF float64

// opCost calls fn in nine equal batches sized to fill about probeBudget
// and returns the median time per call and the mean allocations per call.
func opCost(fn func()) cost {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= probeBudget/20 || n >= 1<<22 {
			break
		}
		n *= 2
	}
	const batches = 9
	per := make([]float64, 0, batches)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&m1)
	calls := float64(batches * n)
	return cost{
		ns:     median(per),
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
	}
}

// probe times fn under a span named name and returns its cost.
func probe(rec *recorder, name string, fn func()) cost {
	sp := rec.start(name, "", "")
	defer sp.end()
	return opCost(fn)
}

// figureInputs is one closed-form Fig 2a run's per-step inputs: truth,
// and the pre-attack measurements and follower speed, replayed into the
// layer probes. challenge marks the steps the radar stayed silent.
type figureInputs struct {
	scen               sim.Scenario
	truthD, truthV     []float64
	measD, measV, folV []float64 // steps before the attack
	challenge          []bool
}

func newFigureInputs(ctx context.Context, seed int64) (*figureInputs, error) {
	s := sim.Fig2aDoS()
	s.Seed = inputSeed(seed, streamProbe, 0)
	res, err := sim.RunContext(ctx, s)
	if err != nil {
		return nil, err
	}
	in := &figureInputs{
		scen:   s,
		truthD: res.Distance.Series(sim.SeriesTrue).Y,
		truthV: res.Velocity.Series(sim.SeriesTrue).Y,
	}
	md := res.Distance.Series(sim.SeriesMeasured).Y
	mv := res.Velocity.Series(sim.SeriesMeasured).Y
	fv := res.Speeds.Series(sim.SeriesFollower).Y
	for k := 0; k < s.Attack.Window.Start; k++ {
		in.measD = append(in.measD, md[k])
		in.measV = append(in.measV, mv[k])
		in.folV = append(in.folV, fv[k])
		in.challenge = append(in.challenge, s.Schedule.Challenge(k))
	}
	return in, nil
}

// kernelProbes times each layer's public functions on inputs derived
// from the workload seed.
func kernelProbes(ctx context.Context, seed int64, rec *recorder, agg simAgg, m map[string]metric) error {
	in, err := newFigureInputs(ctx, seed)
	if err != nil {
		return err
	}
	if err := estimateProbes(rec, in, m); err != nil {
		return err
	}
	if err := radarProbes(rec, seed, in, m); err != nil {
		return err
	}
	if err := dspProbes(rec, seed, m); err != nil {
		return err
	}
	if err := controlProbes(rec, in, m); err != nil {
		return err
	}
	timer := obs.NewTimer("perfbench")
	tc := probe(rec, "obs.timer", func() { timer.Start().End() })
	m["obs.timer_ns_per_call"] = metric{tc.ns, "ns"}
	calls := float64(agg.phaseCalls) / float64(max(agg.runs, 1))
	m["obs.timer_ms_per_run"] = metric{tc.ns * calls / 1e6, "ms"}
	return overheadProbes(ctx, rec, in.scen, m)
}

func estimateProbes(rec *recorder, in *figureInputs, m map[string]metric) error {
	cfg := in.scen.Predictor
	n := 0.0 // accepted measurements per replay
	for _, c := range in.challenge {
		if !c {
			n++
		}
	}
	// replay feeds the run's accepted measurements to a fresh estimator
	// the way the simulator does: Observe on accepted steps, SkipStep at
	// challenge instants.
	replay := func() *estimate.RecoveryEstimator {
		e, err := estimate.NewRecoveryEstimator(cfg)
		if err != nil {
			panic(err) // the scenario's own config was accepted by sim.Run
		}
		for i, c := range in.challenge {
			if c {
				e.SkipStep()
			} else if err := e.Observe(in.measD[i], in.measV[i], in.folV[i]); err != nil {
				panic(err)
			}
		}
		return e
	}
	obsCost := probe(rec, "estimate.observe", func() { replay() })
	m["estimate.observe_ns"] = metric{obsCost.ns / n, "ns"}
	m["estimate.observe_allocs"] = metric{obsCost.allocs / n, "count"}
	warm := replay()
	if !warm.Ready() {
		return fmt.Errorf("estimate probe: %.0f accepted measurements leave the estimator unready", n)
	}
	cl := probe(rec, "estimate.clone", func() { warm.Clone() })
	m["estimate.clone_ns"] = metric{cl.ns, "ns"}
	const horizon = 100
	vF := in.folV[len(in.folV)-1]
	pr := probe(rec, "estimate.predict", func() {
		e := warm.Clone()
		for j := 0; j < horizon; j++ {
			d, _ := e.Predict(vF)
			sinkF += d
		}
	})
	m["estimate.predict_ns"] = metric{math.Max(pr.ns-cl.ns, 0) / horizon, "ns"}
	rls, err := estimate.NewRLS(cfg.Degree+1, cfg.Lambda, cfg.Delta)
	if err != nil {
		return err
	}
	src := noise.NewSource(1)
	hs := make([][]float64, 256)
	for i := range hs {
		hs[i] = src.GaussianVec(cfg.Degree+1, 0, 1)
	}
	up := probe(rec, "estimate.rls_update", func() {
		for _, h := range hs {
			p, _, _ := rls.Update(h, 1)
			sinkF += p
		}
	})
	m["estimate.rls_update_ns"] = metric{up.ns / float64(len(hs)), "ns"}
	return nil
}

func radarProbes(rec *recorder, seed int64, in *figureInputs, m map[string]metric) error {
	p, sched := radar.BoschLRR2(), prbs.PaperFigureSchedule()
	src := noise.NewSource(inputSeed(seed, streamProbe, 1))
	fe, err := radar.NewFrontEnd(p, sched, src)
	if err != nil {
		return err
	}
	steps := len(in.truthD)
	k := 0
	c := probe(rec, "radar.frontend_observe", func() {
		sinkF += fe.Observe(k, in.truthD[k], in.truthV[k]).Distance
		k = (k + 1) % steps
	})
	m["radar.frontend_observe_ns"] = metric{c.ns, "ns"}
	m["radar.frontend_observe_allocs"] = metric{c.allocs, "count"}

	sfe, err := radar.NewSignalFrontEnd(p, sched, radar.FFTExtractor{}, 128, src)
	if err != nil {
		return err
	}
	sfm, err := radar.NewSignalFrontEnd(p, sched, radar.MUSICExtractor{}, 128, src)
	if err != nil {
		return err
	}
	k = 0
	c = probe(rec, "radar.observe_sweep", func() {
		s, _ := sfe.ObserveSweep(k, in.truthD[k], in.truthV[k])
		sinkF += s.Fs
		k = (k + 1) % steps
	})
	m["radar.observe_sweep_us"] = metric{c.ns / 1e3, "us"}
	m["radar.observe_sweep_kb"] = metric{c.bytes / 1024, "KiB"}

	// Sweeps of non-challenge steps, so Measure always extracts.
	var ks []int
	var sweeps []radar.Sweep
	for k := 0; k < steps && len(sweeps) < 16; k++ {
		if s, challenge := sfe.ObserveSweep(k, in.truthD[k], in.truthV[k]); !challenge {
			ks, sweeps = append(ks, k), append(sweeps, s)
		}
	}
	i := 0
	c = probe(rec, "radar.measure_fft", func() {
		sinkF += sfe.Measure(ks[i], sweeps[i], false).Distance
		i = (i + 1) % len(sweeps)
	})
	m["radar.measure_fft_us"] = metric{c.ns / 1e3, "us"}
	c = probe(rec, "radar.measure_music", func() {
		sinkF += sfm.Measure(ks[i], sweeps[i], false).Distance
		i = (i + 1) % len(sweeps)
	})
	m["radar.measure_music_us"] = metric{c.ns / 1e3, "us"}
	return nil
}

func dspProbes(rec *recorder, seed int64, m map[string]metric) error {
	sweep, err := radar.BoschLRR2().SynthesizeSweep(100, -1.5, 128, noise.NewSource(inputSeed(seed, streamProbe, 2)))
	if err != nil {
		return err
	}
	w := window.Hann(len(sweep.Up))
	psd, freqs := spectrum.Periodogram(sweep.Up, w, sweep.Fs)
	c := probe(rec, "dsp.periodogram", func() {
		p, _ := spectrum.Periodogram(sweep.Up, w, sweep.Fs)
		sinkF += p[0]
	})
	m["dsp.periodogram_us"] = metric{c.ns / 1e3, "us"}
	c = probe(rec, "dsp.find_peaks", func() {
		pk, _ := spectrum.FindPeaks(psd, freqs, 1, 1)
		sinkF += pk[0].Freq
	})
	m["dsp.find_peaks_us"] = metric{c.ns / 1e3, "us"}
	c = probe(rec, "dsp.fft", func() { sinkF += real(fft.Forward(sweep.Up)[0]) })
	m["dsp.fft_us"] = metric{c.ns / 1e3, "us"}
	est, err := music.New(music.Config{Order: 12, NumSignals: 1})
	if err != nil {
		return err
	}
	c = probe(rec, "dsp.music_frequencies", func() {
		f, _ := est.Frequencies(sweep.Up)
		sinkF += f[0]
	})
	m["dsp.music_frequencies_us"] = metric{c.ns / 1e3, "us"}
	return nil
}

func controlProbes(rec *recorder, in *figureInputs, m map[string]metric) error {
	s := in.scen
	fe, err := radar.NewFrontEnd(s.Radar, s.Schedule, noise.NewSource(s.Seed))
	if err != nil {
		return err
	}
	ms := make([]radar.Measurement, len(in.truthD))
	for k := range ms {
		ms[k] = fe.Observe(k, in.truthD[k], in.truthV[k])
	}
	det, err := cra.NewDetector(s.Schedule, fe.ZeroThreshold())
	if err != nil {
		return err
	}
	k := 0
	c := probe(rec, "cra.step", func() {
		if det.Step(ms[k]).Detected {
			sinkF++
		}
		k = (k + 1) % len(ms)
	})
	m["cra.step_ns"] = metric{c.ns, "ns"}
	ctl, err := acc.NewController(acc.DefaultConfig(s.SetSpeed))
	if err != nil {
		return err
	}
	i := 0
	c = probe(rec, "acc.controller_step", func() {
		_, a := ctl.Step(in.measD[i], in.measV[i], in.folV[i], true)
		sinkF += a
		i = (i + 1) % len(in.measD)
	})
	m["acc.controller_step_ns"] = metric{c.ns, "ns"}
	m["acc.controller_step_allocs"] = metric{c.allocs, "count"}
	return nil
}

// overheadProbes measures what turning on pprof phase labels, and
// running under a sampled trace span, adds to a closed-form run. The
// two sides alternate in blocks so drift hits both alike.
func overheadProbes(ctx context.Context, rec *recorder, s sim.Scenario, m map[string]metric) error {
	store := obstrace.NewStore(0)
	tctx, root := store.Root(ctx, "perfbench.overhead", "")
	defer root.End()
	timeRun := func(ctx context.Context, into *[]float64) error {
		t0 := time.Now()
		if _, err := sim.RunContext(ctx, s); err != nil {
			return err
		}
		*into = append(*into, ms(time.Since(t0)))
		return nil
	}
	sp := rec.start("obs.overhead_probe", "", "")
	defer sp.end()
	var off, labels, spans, discard []float64
	sides := []func() error{
		func() error { return timeRun(ctx, &off) },
		func() error {
			profile.Enable()
			defer profile.Disable()
			return timeRun(ctx, &labels)
		},
		func() error { return timeRun(tctx, &spans) },
	}
	for i := 0; i < 10; i++ { // warm-up
		if err := timeRun(ctx, &discard); err != nil {
			return err
		}
	}
	// Alternate run by run, rotating which side goes first, so drift
	// and GC cycles hit every side alike.
	const rounds = 90
	for r := 0; r < rounds; r++ {
		for i := range sides {
			if err := sides[(r+i)%len(sides)](); err != nil {
				return err
			}
		}
	}
	base := median(off)
	m["obs.profile_labels_overhead_pct"] = metric{(median(labels) - base) / base * 100, "%"}
	m["obs.trace_span_overhead_pct"] = metric{(median(spans) - base) / base * 100, "%"}
	return nil
}
