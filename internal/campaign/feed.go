package campaign

import "fmt"

// This file is the campaign feed vocabulary: the SSE event types and the
// per-job incidents that both the local (/v1/campaigns) and distributed
// (/v1/dist/campaigns) feeds publish, so one client speaks both.

// Feed event types, published on a campaign's topic (its ID).
const (
	// FeedProgress carries the campaign's done/total counters.
	FeedProgress = "progress"
	// FeedPartial carries a mergeable Partial snapshot.
	FeedPartial = "partial"
	// FeedFlight carries one Incident.
	FeedFlight = "flight"
	// FeedDone is the terminal frame, embedding the final Aggregate.
	FeedDone = "done"
)

// Incident kinds: the paper's three safety failures.
const (
	IncidentCollision     = "collision"
	IncidentFalsePositive = "false_positive"
	IncidentFalseNegative = "false_negative"
)

// Incident is one job's safety failure, attributed to the job's index
// and seed so the run is reproducible from the incident alone.
type Incident struct {
	Kind     string `json:"kind"`
	JobIndex int    `json:"job_index"`
	Seed     int64  `json:"seed,omitempty"`
	// K is the collision step; detector confusion has no single step.
	K      int    `json:"k,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Incidents derives one outcome's incidents, in the order collision,
// false positives, false negatives (nil when the job had none).
func Incidents(o Outcome) []Incident {
	var out []Incident
	if o.CollisionAt >= 0 {
		out = append(out, Incident{Kind: IncidentCollision,
			JobIndex: o.Index, Seed: o.Point.Seed, K: o.CollisionAt, Detail: o.Label})
	}
	if o.FalsePositives > 0 {
		out = append(out, Incident{Kind: IncidentFalsePositive,
			JobIndex: o.Index, Seed: o.Point.Seed,
			Detail: fmt.Sprintf("%s: %d false positives", o.Label, o.FalsePositives)})
	}
	if o.FalseNegatives > 0 {
		out = append(out, Incident{Kind: IncidentFalseNegative,
			JobIndex: o.Index, Seed: o.Point.Seed,
			Detail: fmt.Sprintf("%s: %d false negatives", o.Label, o.FalseNegatives)})
	}
	return out
}
