package obs

import "time"

// clock is the injected time source for span measurement. Timing here
// is reporting metadata, never analysis input, but routing every read
// through the seam keeps the transitive determinism lint exact about
// where wall time can enter the pipeline — and lets tests freeze it.
var clock = time.Now

// Timer accumulates wall time over repeated Spans of one named phase.
// It is a plain accumulator for single-goroutine use (one Timer per phase
// per run); flush the total into a shared Histogram when the run ends.
type Timer struct {
	name  string
	total time.Duration
	calls int
}

// NewTimer returns a zeroed phase timer.
func NewTimer(name string) *Timer { return &Timer{name: name} }

// Name returns the phase name.
func (t *Timer) Name() string { return t.name }

// Total returns the accumulated wall time.
func (t *Timer) Total() time.Duration { return t.total }

// Calls returns how many spans have ended.
func (t *Timer) Calls() int { return t.calls }

// Start opens a span; End it to accumulate.
//
//safesense:hotpath
func (t *Timer) Start() Span { return Span{t: t, start: clock()} }

// Span measures one region of code. The zero Span is inert: End returns 0
// and records nothing.
type Span struct {
	t     *Timer
	start time.Time
}

// End closes the span, accumulates into its Timer, and returns the
// elapsed duration.
//
//safesense:hotpath
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := clock().Sub(s.start)
	s.t.total += d
	s.t.calls++
	return d
}
