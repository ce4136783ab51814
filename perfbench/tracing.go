package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	obstrace "safesense/internal/obs/trace"
)

// spanRec is one recorded span: the benchmark's own spans around calls
// into the program, and the server's spans stitched under them.
type spanRec struct {
	ID        string    `json:"id"`
	Parent    string    `json:"parent,omitempty"`
	Name      string    `json:"name"`
	Layer     string    `json:"layer"`
	RequestID string    `json:"request_id,omitempty"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end"`
}

func (s spanRec) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced loops pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
	seq   int
}

// span is an open benchmark span; a nil span is inert.
type span struct {
	r   *recorder
	rec spanRec
}

// start opens a span named name under parent ("" for a root).
func (r *recorder) start(name, parent, requestID string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	id := "b" + strconv.Itoa(r.seq)
	r.mu.Unlock()
	return &span{r: r, rec: spanRec{
		ID: id, Parent: parent, Name: name, Layer: layerOf(name),
		RequestID: requestID, Start: time.Now(),
	}}
}

func (s *span) id() string {
	if s == nil {
		return ""
	}
	return s.rec.ID
}

// end closes the span and keeps it.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
}

// stitch keeps the server's spans of one request, re-parenting the
// server's roots under the client span that sent the request.
func (r *recorder) stitch(parent, requestID string, server []obstrace.SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range server {
		p := parent
		if s.ParentID != "" {
			p = "s" + s.ParentID
		}
		r.spans = append(r.spans, spanRec{
			ID: "s" + s.SpanID, Parent: p, Name: s.Name, Layer: layerOf(s.Name),
			RequestID: requestID, Start: s.Start, End: spanEnd(s),
		})
	}
}

func (r *recorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// layerOf maps a span name onto the module it times: "http ..." spans
// are safesensed's request handling, "bench.*" spans the benchmark's
// own client, and every other name is prefixed by its package
// ("sim.run", "campaign.job", "dist.lease", "estimate.observe", ...).
func layerOf(name string) string {
	if strings.HasPrefix(name, "http ") {
		return "safesensed"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval its children cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[string][]spanRec{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans dumps spans as JSON lines to path.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(out io.Writer, spans []spanRec) {
	self := selfTimes(spans)
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Layer]++
	}
	fmt.Fprintf(out, "self time by layer (%d spans):\n", len(spans))
	for _, l := range sortedKeys(self) {
		fmt.Fprintf(out, "  %-12s %8d spans %12.3f ms self\n", l, counts[l], float64(self[l].Nanoseconds())/1e6)
	}
}
