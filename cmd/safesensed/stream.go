package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"safesense/internal/campaign"
	"safesense/internal/obs/stream"
)

// progressPayload is the "progress" event body.
type progressPayload struct {
	Campaign   string  `json:"campaign"`
	Status     string  `json:"status"`
	Jobs       int     `json:"jobs"`
	Done       int     `json:"done"`
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// donePayload is the terminal event body. Aggregate is embedded as the
// struct itself, so its bytes inside the event equal a standalone
// json.Marshal of the campaign aggregate — the stream's byte-identity
// contract with a blocking run of the same spec.
type donePayload struct {
	Campaign       string              `json:"campaign"`
	Status         string              `json:"status"`
	Jobs           int                 `json:"jobs"`
	Done           int                 `json:"done"`
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Error          string              `json:"error,omitempty"`
	Aggregate      *campaign.Aggregate `json:"aggregate,omitempty"`
}

// campaignStreamer publishes a running sweep's live view: incremental
// partial snapshots via an Accumulator, throttled progress counters,
// and per-job flight events as they complete. All callbacks run inside
// the engine's serialized progress section, so the counters need no
// extra locking; publishing never blocks by the hub's contract.
type campaignStreamer struct {
	hub  *stream.Hub
	id   string
	jobs int
	acc  *campaign.Accumulator

	// Throttles: progress is cheap so it goes out often; a partial
	// snapshot pays an O(n log n) sort, so it goes out rarely. Both
	// always fire on the final job.
	progressEvery int
	partialEvery  int

	done int
	rps  float64
	eta  float64
}

// newCampaignStreamer sizes the throttles for the grid. A nil hub
// yields a streamer whose publishes are no-ops (Hub methods are
// nil-safe), keeping the engine wiring unconditional.
func newCampaignStreamer(hub *stream.Hub, id string, jobs int) *campaignStreamer {
	cs := &campaignStreamer{
		hub: hub, id: id, jobs: jobs, acc: campaign.NewAccumulator(),
		progressEvery: max(1, jobs/256),
		partialEvery:  max(1, jobs/32),
	}
	return cs
}

func (cs *campaignStreamer) publish(typ string, v any) {
	if cs.hub == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	cs.hub.Publish(cs.id, typ, data)
}

// onOutcome is the engine's OnOutcome hook (serialized with OnStats).
func (cs *campaignStreamer) onOutcome(o campaign.Outcome) {
	cs.acc.Add(o)
	cs.done++
	for _, ev := range incidentEvents(o, time.Now()) {
		cs.publish(campaign.FeedFlight, ev)
	}
	if cs.done%cs.progressEvery == 0 || cs.done == cs.jobs {
		cs.publish(campaign.FeedProgress, progressPayload{
			Campaign: cs.id, Status: statusRunning, Jobs: cs.jobs, Done: cs.done,
			RunsPerSec: cs.rps, ETASeconds: cs.eta,
		})
	}
	if cs.done%cs.partialEvery == 0 || cs.done == cs.jobs {
		cs.publish(campaign.FeedPartial, cs.acc.Snapshot())
	}
}

// onStats mirrors the engine's throughput estimate into later progress
// events (serialized with onOutcome).
func (cs *campaignStreamer) onStats(st campaign.Stats) {
	cs.rps = st.RunsPerSec
	cs.eta = st.ETA.Seconds()
}

// finish publishes the terminal event. Callers hold s.mu (publishing
// under the lock is fine — it never blocks).
func (cs *campaignStreamer) finish(e *entry) {
	cs.publish(campaign.FeedDone, terminalPayload(e))
}

// terminalPayload builds the "done" event body from a terminal entry.
func terminalPayload(e *entry) donePayload {
	p := donePayload{
		Campaign: e.ID, Status: e.Status, Jobs: e.Jobs, Done: e.Done, Error: e.Err,
	}
	if e.Summary != nil {
		p.ElapsedSeconds = e.Summary.ElapsedSeconds
		agg := e.Summary.Aggregate
		p.Aggregate = &agg
	}
	return p
}

// handleCampaignStream serves GET /v1/campaigns/{id}/stream: the
// campaign's live SSE feed (progress, partial, flight, done), with
// full-history replay from the hub's ring and Last-Event-ID resume. A
// campaign that already finished gets one synthesized terminal frame —
// its live events may have been evicted from the ring long ago.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.campaigns[id]
	var terminal *donePayload
	if e != nil && e.terminal() {
		p := terminalPayload(e)
		terminal = &p
	}
	s.mu.Unlock()
	if e == nil {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return
	}
	var final []byte
	if terminal != nil {
		var err error
		if final, err = json.Marshal(terminal); err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
	}
	_ = stream.Serve(w, r, s.cfg.Streams, id, campaign.FeedDone, final)
}
