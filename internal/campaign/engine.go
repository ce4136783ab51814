package campaign

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"safesense/internal/obs"
	"safesense/internal/obs/profile"
	obstrace "safesense/internal/obs/trace"
	"safesense/internal/sim"
	"safesense/internal/stats"
)

// wallClock is the engine's injected time source. Campaign results are
// a pure function of the spec; the clock only feeds wall-clock
// observability (job timings, throughput, ETA), and routing every read
// through this seam keeps the determinism analyzer's contract visible
// and lets tests substitute a fake clock.
var wallClock = time.Now

// Options tunes campaign execution.
type Options struct {
	// Workers bounds the worker pool (<= 0 means GOMAXPROCS).
	Workers int
	// OnStats, when non-nil, is called after every completed job with
	// cumulative timing-derived stats (done/total, runs/sec, ETA). Calls
	// are serialized with OnOutcome; the callback must not block for
	// long or it throttles the pool.
	OnStats func(Stats)
	// OnOutcome, when non-nil, is called after every completed job with
	// the job's outcome — the live tap behind streamed progress and
	// incremental Partial accumulation. Calls arrive in completion
	// order, not grid order (feed an Accumulator, whose snapshots
	// re-sort).
	OnOutcome func(Outcome)
	// DiscardOutcomes drops the per-job outcome list from Run's summary,
	// keeping only the aggregate — for very large campaigns where the
	// O(jobs) payload is unwanted.
	DiscardOutcomes bool
	// Forensic, when non-nil with a Sink, enables forensic capture:
	// every job whose Result carries anomaly dumps (plus latency
	// outliers beyond the configured percentile) is projected onto a
	// forensic.Capture and handed to the sink, concurrently from the
	// pool workers. See ForensicOptions.
	Forensic *ForensicOptions
	// Campaign names the sweep in each job's pprof "campaign" label
	// (when a profile consumer is active) and in its forensic captures.
	// Run defaults it to the spec name; distributed workers pass the
	// lease's campaign ID.
	Campaign string
	// Log receives the engine's structured records. Every record carries
	// the job's index and seed, so log lines from concurrent sweeps can
	// be tied back to a reproducible scenario. Nil discards.
	Log *slog.Logger
}

// slowestJobs is the top-K table size of Summary.SlowestJobs.
const slowestJobs = 8

// Outcome is the per-job result record: the job identity plus the scalar
// metrics a sweep aggregates. Traces are deliberately not retained — a
// 10k-job campaign at 301 steps would otherwise hold ~10^7 samples.
type Outcome struct {
	Index     int    `json:"index"`
	Replicate int    `json:"replicate"`
	Label     string `json:"label"`
	Point     Point  `json:"point"`

	// DetectedAt is the step the attack was flagged, -1 if never.
	DetectedAt int `json:"detected_at"`
	// DetectionLatency is DetectedAt - onset, -1 if never detected or no
	// attack was mounted.
	DetectionLatency int `json:"detection_latency"`

	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`

	MinGapM     float64 `json:"min_gap_m"`
	FinalGapM   float64 `json:"final_gap_m"`
	CollisionAt int     `json:"collision_at"`

	EstimateSteps int     `json:"estimate_steps"`
	DistRMSEm     float64 `json:"dist_rmse_m"`
	DistMaxErrM   float64 `json:"dist_max_err_m"`
	VelRMSEmps    float64 `json:"vel_rmse_mps"`
	VelMaxErrMps  float64 `json:"vel_max_err_mps"`
	FinalSpeedMps float64 `json:"final_speed_mps"`
}

// outcomeOf projects a sim.Result onto the campaign record.
func outcomeOf(j Job, res *sim.Result) Outcome {
	o := Outcome{
		Index:            j.Index,
		Replicate:        j.Replicate,
		Label:            j.Point.Label(),
		Point:            j.Point,
		DetectedAt:       res.DetectedAt,
		DetectionLatency: -1,
		FalsePositives:   res.Accuracy.FalsePositives,
		FalseNegatives:   res.Accuracy.FalseNegatives,
		MinGapM:          res.MinGap,
		FinalGapM:        res.FinalGap,
		CollisionAt:      res.CollisionAt,
		EstimateSteps:    res.EstimateSteps,
		DistRMSEm:        res.EstimateDistRMSE,
		DistMaxErrM:      res.EstimateDistMaxErr,
		VelRMSEmps:       res.EstimateVelRMSE,
		VelMaxErrMps:     res.EstimateVelMaxErr,
		FinalSpeedMps:    res.FinalFollowerSpeed,
	}
	if j.Point.Attack != AttackNone && j.Point.Attack != "" {
		o.DetectionLatency = stats.DetectionLatency(j.Point.Onset, res.DetectedAt)
	}
	return o
}

// JobTiming is one row of the summary's slowest-jobs table.
type JobTiming struct {
	Index   int     `json:"index"`
	Seed    int64   `json:"seed"`
	Label   string  `json:"label"`
	Seconds float64 `json:"seconds"`
}

// topK accumulates the slowestJobs largest job timings; insert is
// O(K) which is fine for K = 8 against ~ms jobs.
type topK struct {
	mu   sync.Mutex
	rows []JobTiming
}

func (t *topK) insert(row JobTiming) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.rows), func(i int) bool { return t.rows[i].Seconds < row.Seconds })
	if i >= slowestJobs {
		return
	}
	t.rows = append(t.rows, JobTiming{})
	copy(t.rows[i+1:], t.rows[i:])
	t.rows[i] = row
	if len(t.rows) > slowestJobs {
		t.rows = t.rows[:slowestJobs]
	}
}

func (t *topK) table() []JobTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) == 0 {
		return nil
	}
	out := make([]JobTiming, len(t.rows))
	copy(out, t.rows)
	return out
}

// Summary is the full campaign result: the deterministic Aggregate (a pure
// function of the spec), the per-job outcomes, and the timing of this
// particular execution.
type Summary struct {
	Name    string `json:"name,omitempty"`
	Spec    Spec   `json:"spec"`
	Workers int    `json:"workers"`

	Aggregate Aggregate `json:"aggregate"`
	// Outcomes lists every job in grid order (nil when discarded).
	Outcomes []Outcome `json:"outcomes,omitempty"`

	// SlowestJobs ranks this execution's slowest jobs, descending — the
	// first place to look when a sweep's tail latency grows. Wall-clock,
	// not deterministic.
	SlowestJobs []JobTiming `json:"slowest_jobs,omitempty"`

	// ElapsedSeconds and RunsPerSec time this execution (wall clock; not
	// deterministic, excluded from determinism comparisons).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RunsPerSec     float64 `json:"runs_per_sec"`
}

// Run expands the spec and executes every job on a bounded worker pool.
// The context cancels the sweep: remaining jobs are abandoned and
// ctx.Err() is returned. Results are deterministic for a given spec —
// identical regardless of Workers.
//
// When ctx carries a trace span (internal/obs/trace), the sweep records
// a campaign.run span plus, per job, queue-wait / job / aggregate spans
// (the job span wraps the simulator's own sim.run span), all linked
// under the caller's trace — so one request ID in safesensed resolves to
// the full fan-out.
func Run(ctx context.Context, spec Spec, opt Options) (*Summary, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opt.Campaign == "" {
		opt.Campaign = spec.Name
	}
	if f := opt.Forensic; f != nil && f.Sink != nil && f.SpecHash == "" {
		withHash := *f
		withHash.SpecHash = spec.Hash()
		opt.Forensic = &withHash
	}

	ctx, cspan := obstrace.StartSpan(ctx, "campaign.run")
	defer cspan.End()
	metricActiveCampaigns.With().Add(1)
	defer metricActiveCampaigns.With().Add(-1)

	sum, err := execute(ctx, jobs, opt)
	if cspan.Sampled() {
		cspan.SetAttr("campaign", spec.Name)
		cspan.SetAttrInt("jobs", int64(len(jobs)))
		cspan.SetAttrInt("workers", int64(sum.Workers))
	}
	if err != nil {
		return nil, err
	}
	sum.Name = spec.Name
	sum.Spec = spec
	sum.Aggregate = AggregateOutcomes(sum.Outcomes)
	if opt.DiscardOutcomes {
		sum.Outcomes = nil
	}
	return sum, nil
}

// RunJobs executes an explicit job list — e.g. one distributed lease's
// contiguous shard of a larger grid — on a bounded worker pool,
// returning the outcomes in job-list order. The jobs keep their global
// grid indices (Outcome.Index is Job.Index, not the list position), so
// a shard's outcomes slot directly into the full-grid statistics.
// DiscardOutcomes does not apply; a forensic SpecHash must be set by the
// caller (the engine only sees the job sublist).
func RunJobs(ctx context.Context, jobs []Job, opt Options) ([]Outcome, error) {
	sum, err := execute(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	return sum.Outcomes, nil
}

// execute is the one engine path behind Run (a full expanded grid) and
// RunJobs (an arbitrary job sublist). It sizes the pool, defaults the
// logger, serializes OnOutcome/OnStats, and feeds the forensic capturer
// and the slowest-jobs table. Outcomes are written by list position, so
// their order always matches the input order; a failing job cancels the
// pool and surfaces the first error. The returned summary is never nil:
// it carries Workers, and on success the outcomes, the slowest-jobs
// table and this execution's timing — Run adds the spec and aggregate.
func execute(ctx context.Context, jobs []Job, opt Options) (*Summary, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	sum := &Summary{Workers: workers}
	logger := opt.Log
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	capt := newCapturer(opt)
	slowest := &topK{}
	start := wallClock()

	var reportMu sync.Mutex
	reported := 0
	finish := func(o Outcome, j Job, res *sim.Result, jobTime time.Duration) {
		slowest.insert(JobTiming{
			Index: o.Index, Seed: o.Point.Seed,
			Label: o.Label, Seconds: jobTime.Seconds(),
		})
		if capt != nil {
			capt.observe(j, res, jobTime)
		}
		if opt.OnOutcome == nil && opt.OnStats == nil {
			return
		}
		reportMu.Lock()
		defer reportMu.Unlock()
		reported++
		if opt.OnOutcome != nil {
			opt.OnOutcome(o)
		}
		if opt.OnStats != nil {
			opt.OnStats(statsAt(reported, len(jobs), wallClock().Sub(start)))
		}
	}

	type feedItem struct {
		pos int
		job Job
	}
	outcomes := make([]Outcome, len(jobs))
	feed := make(chan feedItem)
	errc := make(chan error, workers)
	var wg sync.WaitGroup

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, qspan := obstrace.StartSpan(ctx, "campaign.queue_wait")
				idle := wallClock()
				it, ok := <-feed
				if !ok {
					qspan.End()
					return
				}
				j := it.job
				qspan.SetAttrInt("job", int64(j.Index))
				qspan.End()
				metricQueueWaitSeconds.With().ObserveDuration(wallClock().Sub(idle))

				busy := wallClock()
				jobCtx, jspan := obstrace.StartSpan(ctx, "campaign.job")
				jspan.SetAttrInt("job", int64(j.Index))
				jspan.SetAttrInt("seed", j.Point.Seed)
				jspan.SetAttr("label", j.Point.Label())
				s, err := j.Point.Scenario()
				if err == nil {
					var res *sim.Result
					if profile.Enabled() {
						// Tag the job's CPU samples; the sim's own phase
						// labels merge on top inside RunContext.
						profile.DoJob(jobCtx, opt.Campaign, j.Index, func(c context.Context) {
							res, err = sim.RunContext(c, s)
						})
					} else {
						res, err = sim.RunContext(jobCtx, s)
					}
					if err == nil {
						_, aspan := obstrace.StartSpan(jobCtx, "campaign.aggregate")
						outcomes[it.pos] = outcomeOf(j, res)
						aspan.End()
						jspan.End()
						jobTime := wallClock().Sub(busy)
						metricJobSeconds.With().ObserveDuration(jobTime)
						metricWorkerBusySeconds.With().Add(jobTime.Seconds())
						metricJobsDone.With().Inc()
						logger.Debug("campaign job done",
							"job", j.Index, "seed", j.Point.Seed,
							"duration_ms", float64(jobTime.Nanoseconds())/1e6)
						finish(outcomes[it.pos], j, res, jobTime)
						continue
					}
				}
				jspan.SetAttr("error", err.Error())
				jspan.End()
				metricJobsFailed.With().Inc()
				logger.Error("campaign job failed",
					"job", j.Index, "seed", j.Point.Seed, "error", err.Error())
				select {
				case errc <- fmt.Errorf("campaign: job %d (seed %d, %s): %w",
					j.Index, j.Point.Seed, j.Point.Label(), err):
				default:
				}
				cancel()
				return
			}
		}()
	}

feedLoop:
	for pos, j := range jobs {
		select {
		case feed <- feedItem{pos: pos, job: j}:
		case <-runCtx.Done():
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()

	select {
	case err := <-errc:
		return sum, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	elapsed := wallClock().Sub(start)
	sum.Outcomes = outcomes
	sum.SlowestJobs = slowest.table()
	sum.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		sum.RunsPerSec = float64(len(jobs)) / elapsed.Seconds()
	}
	return sum, nil
}
