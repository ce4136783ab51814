package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/radar"
	"safesense/internal/sim"
)

// Seed streams: every input derives from (workload seed, stream, index)
// so the streams never share a seed.
const (
	streamRuns = iota + 1
	streamMusicRuns
	streamWarmup
	streamProbe
	streamPoints
	streamSpecs
)

// inputSeed derives the seed of input i of a stream from the workload seed.
func inputSeed(seed int64, stream, i int) int64 {
	return campaign.DeriveSeed(campaign.DeriveSeed(seed, stream), i)
}

// fftRunsPerMusicRun fixes the signal-level mix: an FFT run costs about
// 12 ms and a root-MUSIC run about 0.86 s on a 2-vCPU host, so 70 FFT
// runs per root-MUSIC run give the two extractors comparable shares of
// wall time.
const fftRunsPerMusicRun = 70

// inProcess is the figures_closed_form and figures_signal_level
// workload: one caller runs sim.RunContext back to back over the four
// defended paper scenarios. On the signal-level workload every run
// synthesizes the dechirped sweep; fftRunsPerMusicRun runs with the FFT
// extractor alternate with one root-MUSIC run.
type inProcess struct {
	seed   int64
	signal bool
	bases  []sim.Scenario // FFT or closed-form figure scenarios
	music  []sim.Scenario // root-MUSIC figure scenarios (signal-level only)
	next   int            // index of the next timed run
	nextMu int            // index of the next root-MUSIC run
}

func newInProcess(seed int64, signal bool) *inProcess {
	return &inProcess{seed: seed, signal: signal}
}

// figureScenarios builds the four defended paper scenarios, with the
// signal-level pipeline and the given extractor when signal is set.
func figureScenarios(signal bool, ext radar.BeatExtractor) []sim.Scenario {
	out := make([]sim.Scenario, len(paperFigures))
	for i, f := range paperFigures {
		s := f.mk()
		s.SignalLevel = signal
		s.Extractor = ext
		out[i] = s
	}
	return out
}

// setup builds the scenarios and warms up with one run of each; the
// signal-level workload also warms up one root-MUSIC run.
func (w *inProcess) setup(ctx context.Context) ([]time.Duration, error) {
	reps := 15
	if w.signal {
		reps = 3
	}
	var times []time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		w.bases = figureScenarios(w.signal, nil)
		if w.signal {
			w.music = figureScenarios(true, radar.MUSICExtractor{})
		}
		warm := append([]sim.Scenario(nil), w.bases...)
		if w.signal {
			warm = append(warm, w.music[r%len(w.music)])
		}
		for i, s := range warm {
			s.Seed = inputSeed(w.seed, streamWarmup, r*len(warm)+i)
			if _, err := sim.RunContext(ctx, s); err != nil {
				return nil, fmt.Errorf("warm-up run: %w", err)
			}
		}
		times = append(times, time.Since(t0))
	}
	return times, nil
}

func (w *inProcess) close() {}

// runOne runs scenario s and checks it, recording a span when rec is set.
func (w *inProcess) runOne(ctx context.Context, s sim.Scenario, rec *recorder, parent string, t *tally) (*sim.Result, time.Duration, error) {
	sp := rec.start("sim.run", parent, "")
	t0 := time.Now()
	res, err := sim.RunContext(ctx, s)
	d := time.Since(t0)
	sp.end()
	if err == nil {
		err = checkRun(res)
	}
	t.record(err)
	return res, d, err
}

func (w *inProcess) loop(ctx context.Context, d time.Duration, rec *recorder, t *tally) (*loopResult, error) {
	perCycle := len(w.bases)
	if w.signal {
		perCycle = fftRunsPerMusicRun
	}
	lr := &loopResult{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// The window ends only between groups of len(w.bases) cycles, where
	// every scenario has run equally often: the four figures' runs cost
	// up to 1.6x one another (root-MUSIC: 1.1-1.8 s), so an unequal mix
	// would move the medians with the number of cycles completed.
	for ctx.Err() == nil && (time.Since(start) < d || w.nextMu%len(w.bases) != 0) {
		cycle := rec.start("bench.cycle", "", "")
		c0 := time.Now()
		done := 0 // runs of this cycle that runs_per_s counts
		for j := 0; j < perCycle; j++ {
			s := w.bases[w.next%len(w.bases)]
			s.Seed = inputSeed(w.seed, streamRuns, w.next)
			w.next++
			res, rd, err := w.runOne(ctx, s, rec, cycle.id(), t)
			lr.run.addResult(rd, err)
			lr.perRuns++
			if err == nil {
				done++
			}
			if res != nil {
				if res.CollisionAt >= 0 {
					lr.collisions++
				}
				if rec != nil {
					lr.sim.add(res, rd)
				}
			}
		}
		// runs_per_s counts the FFT runs of a signal-level cycle, in
		// the time they took.
		lr.runs += done
		lr.rates = append(lr.rates, float64(done)/time.Since(c0).Seconds())
		if w.signal {
			s := w.music[w.nextMu%len(w.music)]
			s.Seed = inputSeed(w.seed, streamMusicRuns, w.nextMu)
			w.nextMu++
			_, md, err := w.runOne(ctx, s, rec, cycle.id(), t)
			lr.batch.addResult(md, err)
			lr.perRuns++
		} else {
			lr.batch.add(time.Since(c0))
		}
		cycle.end()
	}
	lr.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	lr.allocs = m1.Mallocs - m0.Mallocs
	lr.bytes = m1.TotalAlloc - m0.TotalAlloc
	lr.gcs = m1.NumGC - m0.NumGC
	return lr, nil
}

// simAgg accumulates the sim layer's per-run numbers: wall time, the
// Result.Phases breakdown, the RLS time and collisions.
type simAgg struct {
	runs       int
	wall       time.Duration
	phaseSec   map[string]float64
	phaseCalls int
	rls        time.Duration
	collisions int
}

// merge folds b into a.
func (a *simAgg) merge(b simAgg) {
	if a.phaseSec == nil {
		a.phaseSec = map[string]float64{}
	}
	a.runs += b.runs
	a.wall += b.wall
	for p, sec := range b.phaseSec {
		a.phaseSec[p] += sec
	}
	a.phaseCalls += b.phaseCalls
	a.rls += b.rls
	a.collisions += b.collisions
}

func (a *simAgg) add(res *sim.Result, wall time.Duration) {
	if a.phaseSec == nil {
		a.phaseSec = map[string]float64{}
	}
	a.runs++
	a.wall += wall
	for _, p := range res.Phases {
		a.phaseSec[p.Phase] += p.Seconds
		a.phaseCalls += p.Calls
	}
	a.rls += res.RLSTime
	if res.CollisionAt >= 0 {
		a.collisions++
	}
}
