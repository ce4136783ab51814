// Package profile is the continuous-profiling plane: pprof goroutine
// labels that attribute CPU samples to pipeline phases and campaign
// jobs, a stdlib-only decoder for the gzip+protobuf pprof wire format,
// a summary (top functions, per-phase CPU shares), a bounded
// content-addressed capture store, and the background profiler
// safesensed runs between requests. Offline summaries and diffs of raw
// captures are left to `go tool pprof` (-tags, -top, -diff_base).
//
// The package deliberately imports neither internal/sim nor
// internal/perf — both import it — so the label helpers and the decoder
// stay leaf dependencies.
package profile

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Label keys attached to CPU samples. LabelPhase carries the
// internal/sim phase names; LabelCampaign/LabelJob identify the
// campaign worker that ran the sample.
const (
	LabelPhase    = "phase"
	LabelCampaign = "campaign"
	LabelJob      = "job"
)

// Unlabeled is the summary bucket for samples with no phase label:
// runtime internals, GC, and any code outside the instrumented phases.
const Unlabeled = "(unlabeled)"

// enabled counts the label consumers currently active (the continuous
// profiler, safesim -profile-dir, perf captures). Labeling costs one
// atomic load per phase transition when off, so the simulator checks
// Enabled once per run and skips label plumbing entirely at zero.
var enabled atomic.Int64

// Enable turns phase/job labeling on (reference-counted).
func Enable() { enabled.Add(1) }

// Disable releases one Enable.
func Disable() { enabled.Add(-1) }

// Enabled reports whether any profile consumer wants labeled samples.
func Enabled() bool { return enabled.Load() > 0 }

// DoJob runs f with campaign/job labels attached to the goroutine for
// its duration (restoring the previous labels after), so every CPU
// sample inside a campaign job is attributable to the sweep and grid
// index that ran it.
func DoJob(ctx context.Context, campaign string, job int, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(
		LabelCampaign, campaign,
		LabelJob, strconv.Itoa(job),
	), f)
}
