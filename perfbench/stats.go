package main

import (
	"math"
	"time"

	"safesense/internal/stats"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile: p95 needs at least 200 samples, p99 at least 1000.
const minTailSamples = 10

// sample is a set of latency observations in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// addResult records an operation's latency, or +Inf when it failed: a
// failed, refused or wrong operation misses every latency bound.
func (s *sample) addResult(d time.Duration, err error) {
	if err != nil {
		*s = append(*s, math.Inf(1))
		return
	}
	s.add(d)
}

// median is the 50th percentile; a failed sample (+Inf) counts as
// slower than any other.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// tailOK reports whether n samples leave at least minTailSamples beyond
// the p-th percentile, so the percentile is reportable.
func tailOK(n int, p float64) bool {
	// The tolerance absorbs binary rounding of p (100 - 99.9 < 0.1).
	return float64(n)*(100-p)/100 >= minTailSamples-1e-9
}

// highestTail returns the highest of the usual tail percentiles that n
// samples support, or 0 when n supports none of them.
func highestTail(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if tailOK(n, p) {
			return p
		}
	}
	return 0
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
