package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"safesense/internal/campaign"
	"safesense/internal/report"
	"safesense/internal/sim"
)

// paperDetectionStep is where the paper's figures flag the attack.
const paperDetectionStep = 182

// paperFigures are the Figure 2/3 scenarios behind results/*.csv, in
// the order the in-process workloads cycle through them.
var paperFigures = []struct {
	id string
	mk func() sim.Scenario
}{
	{"fig2a", sim.Fig2aDoS},
	{"fig2b", sim.Fig2bDelay},
	{"fig3a", sim.Fig3aDoS},
	{"fig3b", sim.Fig3bDelay},
}

// checkFigureCSVs regenerates every paper-seed figure and compares its
// distance and velocity traces with the committed CSVs byte for byte.
func checkFigureCSVs(dir string) error {
	for _, f := range paperFigures {
		fig, err := report.Figure(f.id, f.mk())
		if err != nil {
			return fmt.Errorf("figure oracle: %s: %w", f.id, err)
		}
		for _, part := range []struct {
			suffix string
			write  func(*bytes.Buffer) error
		}{
			{"distance", func(b *bytes.Buffer) error { return fig.Distance.WriteCSV(b) }},
			{"velocity", func(b *bytes.Buffer) error { return fig.Velocity.WriteCSV(b) }},
		} {
			var got bytes.Buffer
			if err := part.write(&got); err != nil {
				return fmt.Errorf("figure oracle: %s-%s: %w", f.id, part.suffix, err)
			}
			path := filepath.Join(dir, f.id+"-"+part.suffix+".csv")
			want, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("figure oracle: %w", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				return fmt.Errorf("figure oracle: %s differs from the regenerated %s trace", path, f.id)
			}
		}
	}
	return nil
}

// checkRun verifies the detector's invariants on one defended figure
// run: detection at k = 182, no challenge-instant false positive or
// negative, and finite estimates and state. A collision is not checked here: the
// paper seed is collision-free (checkFigureCSVs pins it), but other noise
// seeds collide at a measured rate, which the benchmark reports instead.
func checkRun(res *sim.Result) error {
	s := res.Scenario
	id := fmt.Sprintf("%s seed %d", s.Name, s.Seed)
	switch {
	case res.DetectedAt != paperDetectionStep:
		return fmt.Errorf("run oracle: %s: detected at k = %d, want %d", id, res.DetectedAt, paperDetectionStep)
	case res.Accuracy.FalsePositives != 0 || res.Accuracy.FalseNegatives != 0:
		return fmt.Errorf("run oracle: %s: %d false positives, %d false negatives at challenge instants",
			id, res.Accuracy.FalsePositives, res.Accuracy.FalseNegatives)
	}
	for _, v := range []float64{res.EstimateDistRMSE, res.EstimateVelRMSE, res.EstimateDistMaxErr,
		res.EstimateVelMaxErr, res.MinGap, res.FinalGap, res.FinalFollowerSpeed} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("run oracle: %s: non-finite estimate or state", id)
		}
	}
	return nil
}

// pointOracle is one POST /v1/run request body with the response an
// in-process sim.Run of the same point gives.
type pointOracle struct {
	body []byte
	want []byte
}

// canonicalRun renders a run summary with its wall-clock field zeroed,
// the form responses are compared in.
func canonicalRun(s report.RunSummary) ([]byte, error) {
	s.RLSTimeNs = 0
	return json.Marshal(s)
}

func newPointOracle(p campaign.Point) (pointOracle, error) {
	scen, err := p.Scenario()
	if err != nil {
		return pointOracle{}, err
	}
	res, err := sim.Run(scen)
	if err != nil {
		return pointOracle{}, err
	}
	want, err := canonicalRun(report.Summarize(res, false))
	if err != nil {
		return pointOracle{}, err
	}
	body, err := json.Marshal(p)
	if err != nil {
		return pointOracle{}, err
	}
	return pointOracle{body: body, want: want}, nil
}

// check compares a /v1/run response body with the in-process result.
func (o pointOracle) check(resp []byte) error {
	var got report.RunSummary
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("run response oracle: decoding: %w", err)
	}
	canon, err := canonicalRun(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(canon, o.want) {
		return fmt.Errorf("run response oracle: %s seed %d differs from in-process sim.Run", got.Name, got.Seed)
	}
	return nil
}

// specOracle is one campaign spec with the aggregate an in-process
// campaign.Run of it produces.
type specOracle struct {
	spec campaign.Spec
	jobs int
	want []byte
}

func newSpecOracle(ctx context.Context, spec campaign.Spec, workers int) (specOracle, error) {
	sum, err := campaign.Run(ctx, spec, campaign.Options{Workers: workers, DiscardOutcomes: true})
	if err != nil {
		return specOracle{}, err
	}
	want, err := json.Marshal(sum.Aggregate)
	if err != nil {
		return specOracle{}, err
	}
	return specOracle{spec: spec, jobs: sum.Aggregate.Jobs, want: want}, nil
}

// check compares a campaign's final aggregate bytes with the in-process
// aggregate of the same spec.
func (o specOracle) check(kind string, aggregate []byte) error {
	if !bytes.Equal(aggregate, o.want) {
		return fmt.Errorf("%s aggregate oracle: campaign %q differs from in-process campaign.Run", kind, o.spec.Name)
	}
	return nil
}
