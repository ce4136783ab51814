package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates the three metric families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families. Registration takes a lock; the metric
// hot path (With + Inc/Add/Observe) never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and one child per
// distinct label-value tuple.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending

	// children maps the joined label-value key to *Counter, *Gauge, or
	// *Histogram. Reads are lock-free; creation serializes on newMu.
	children sync.Map
	newMu    sync.Mutex
}

// keySep joins label values into a child key; \xff cannot appear in valid
// UTF-8 label values, so the key is unambiguous.
const keySep = "\xff"

func (r *Registry) register(name, help string, k kind, buckets []float64, labels []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind or label schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: append([]string(nil), labels...)}
	if k == histogramKind {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(f.buckets) {
			panic(fmt.Sprintf("obs: histogram %q buckets must be ascending", name))
		}
	}
	if len(labels) == 0 {
		// Eagerly create the single unlabeled child so the family renders
		// (at zero) before the first event.
		f.child()
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child resolves (or creates) the child for the given label values.
func (f *family) child(values ...string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, keySep)
	if c, ok := f.children.Load(key); ok {
		return c
	}
	f.newMu.Lock()
	defer f.newMu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c
	}
	var c any
	switch f.kind {
	case counterKind:
		c = &Counter{}
	case gaugeKind:
		c = &Gauge{}
	case histogramKind:
		c = newHistogram(f.buckets)
	}
	f.children.Store(key, c)
	return c
}

// Counter is a monotonically increasing float64.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
//
//safesense:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored; counters only go up).
//
//safesense:hotpath
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	addFloat(&c.bits, delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
//
//safesense:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (may be negative).
//
//safesense:hotpath
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat is the lock-free float accumulator under every Counter and
// Gauge write.
//
//safesense:hotpath
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed cumulative-at-render buckets.
type Histogram struct {
	upper     []float64
	counts    []atomic.Uint64 // len(upper)+1; the last is +Inf
	sum       atomic.Uint64   // float64 bits
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it, so a
// histogram bucket in /metrics can point at a concrete request or run in
// /debug/traces.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:     upper,
		counts:    make([]atomic.Uint64, len(upper)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(upper)+1),
	}
}

// Observe records one value (NaN is dropped).
//
//safesense:hotpath
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// ObserveExemplar records v and, when traceID is non-empty, replaces the
// matching bucket's exemplar with (v, traceID). The write is a single
// atomic pointer swap, keeping the hot path lock-free.
//
//safesense:hotpath
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// ObserveDuration records d in seconds.
//
//safesense:hotpath
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the child counter for the label values; callers on hot
// paths should cache the result.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values...).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values...).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values...).(*Histogram) }

// Counter registers (or fetches) a counter family. Registering an
// existing name with a different kind or label schema panics.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, counterKind, nil, labels)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, gaugeKind, nil, labels)}
}

// Histogram registers (or fetches) a histogram family with the given
// ascending upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, histogramKind, buckets, labels)}
}

// Snapshot types: a stable, test-friendly view of the registry.
type (
	// FamilySnapshot is one metric family at a point in time.
	FamilySnapshot struct {
		Name    string           `json:"name"`
		Help    string           `json:"help"`
		Kind    string           `json:"kind"`
		Metrics []MetricSnapshot `json:"metrics"`
	}
	// MetricSnapshot is one child. Value is set for counters/gauges;
	// Count/Sum/Buckets for histograms.
	MetricSnapshot struct {
		Labels  map[string]string `json:"labels,omitempty"`
		Value   float64           `json:"value,omitempty"`
		Count   uint64            `json:"count,omitempty"`
		Sum     float64           `json:"sum,omitempty"`
		Buckets []BucketSnapshot  `json:"buckets,omitempty"`
	}
	// BucketSnapshot is one cumulative histogram bucket; the final bucket
	// has UpperBound = +Inf, which JSON renders as the string "+Inf" (the
	// Prometheus le spelling). Exemplar, when present, is the latest
	// traced observation that landed in this bucket.
	BucketSnapshot struct {
		UpperBound float64   `json:"le"`
		Count      uint64    `json:"count"`
		Exemplar   *Exemplar `json:"exemplar,omitempty"`
	}
)

// MarshalJSON writes the overflow bucket's +Inf bound as "+Inf": JSON
// has no infinity literal, and json.Marshal rejects the float.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	type plain BucketSnapshot
	if !math.IsInf(b.UpperBound, 1) {
		return json.Marshal(plain(b))
	}
	return json.Marshal(struct {
		UpperBound string `json:"le"`
		plain
	}{"+Inf", plain(b)})
}

// Snapshot captures every family, sorted by name, children sorted by
// label values. Values are read atomically per metric (the snapshot as a
// whole is not a consistent cut — fine for tests and exposition).
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	families := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		families = append(families, f)
	}
	r.mu.Unlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })

	out := make([]FamilySnapshot, 0, len(families))
	for _, f := range families {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		type kv struct {
			key string
			c   any
		}
		var kids []kv
		f.children.Range(func(k, v any) bool {
			kids = append(kids, kv{k.(string), v})
			return true
		})
		sort.Slice(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
		for _, kid := range kids {
			m := MetricSnapshot{}
			if len(f.labels) > 0 {
				values := strings.Split(kid.key, keySep)
				m.Labels = make(map[string]string, len(f.labels))
				for i, name := range f.labels {
					m.Labels[name] = values[i]
				}
			}
			switch c := kid.c.(type) {
			case *Counter:
				m.Value = c.Value()
			case *Gauge:
				m.Value = c.Value()
			case *Histogram:
				var cum uint64
				for i := range c.counts {
					cum += c.counts[i].Load()
					ub := math.Inf(1)
					if i < len(c.upper) {
						ub = c.upper[i]
					}
					m.Buckets = append(m.Buckets, BucketSnapshot{
						UpperBound: ub, Count: cum, Exemplar: c.exemplars[i].Load(),
					})
				}
				m.Count = cum
				m.Sum = c.Sum()
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		out = append(out, fs)
	}
	return out
}
