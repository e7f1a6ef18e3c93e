package obs

import (
	"fmt"
	"math"
	"sort"
)

// Metric is one row of a registry snapshot. Key is "subsystem/name"
// (histograms flatten into "subsystem/name/count", ".../mean", ".../p50",
// ".../p99", ".../max" sub-keys), Kind is "counter", "gauge", "probe" or
// "histogram", and Value is the current reading.
type Metric struct {
	Key   string
	Kind  string
	Value float64
}

// Counter is a monotonically increasing count. A nil *Counter is a valid
// disabled counter: Inc/Add on it are no-ops.
type Counter struct {
	v int64
}

// Inc adds 1. No-op on nil.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time level. A nil *Gauge is a valid disabled gauge.
type Gauge struct {
	v float64
}

// Set replaces the level. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add moves the level by d. No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value reports the current level (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates observations into fixed buckets chosen at
// registration time. Buckets are upper bounds (inclusive), sorted
// ascending; observations above the last bound land in a +Inf overflow
// bucket. Count, sum and max are tracked exactly; quantiles are estimated
// from the bucket counts. A nil *Histogram is a valid disabled histogram.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is overflow
	count  uint64
	sum    float64
	max    float64
}

// Observe records one sample. No-op on nil; zero-alloc.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	// The first sample seeds max unconditionally: comparing against the
	// zero-initialized field would report max=0 for all-negative samples.
	if h.count == 1 || v > h.max {
		h.max = v
	}
}

// Count reports the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean reports the exact sample mean (0 if empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max reports the exact maximum sample (0 if empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// returning the upper bound of the bucket holding the q-th sample. The
// overflow bucket reports the exact max.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// DefaultLatencyBuckets covers 1µs..1s in roughly 1-2-5 steps; values are
// microseconds, matching the frame-time and verdict-gap histograms.
var DefaultLatencyBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
	100_000, 200_000, 500_000, 1_000_000,
}

// Registry is a get-or-create store of named instruments keyed
// "subsystem/name". A nil *Registry is the disabled state: every
// constructor on it returns nil, which is itself a valid disabled
// instrument, so instrumentation code never branches on enablement.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	probes     map[string]func() float64

	// frozen holds materialized probe readings: Materialize evaluates
	// every registered probe into this map, and Merge accumulates source
	// probe readings here. A frozen key overrides its live probe in
	// Snapshot, so a materialized registry keeps reporting the values it
	// held at materialization time even after the probed subsystems are
	// reset — the property the pooled fleet driver depends on.
	frozen map[string]float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		probes:     map[string]func() float64{},
	}
}

// Counter returns the counter named key, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(key string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge named key, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Gauge(key string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram named key, creating it with the given
// bucket upper bounds on first use (nil bounds means
// DefaultLatencyBuckets). Returns nil on a nil registry.
func (r *Registry) Histogram(key string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[key]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		sorted := append([]float64(nil), bounds...)
		sort.Float64s(sorted)
		h = &Histogram{bounds: sorted, counts: make([]uint64, len(sorted)+1)}
		r.histograms[key] = h
	}
	return h
}

// Probe registers a pull-style metric: fn is called at snapshot time.
// Probes let the registry read counters a subsystem already maintains
// (bus FramesOK, kernel Steps, ...) without double-counting on the hot
// path. No-op on a nil registry.
func (r *Registry) Probe(key string, fn func() float64) {
	if r == nil {
		return
	}
	r.probes[key] = fn
}

// Materialize evaluates every registered probe now and stores the
// readings, so later Snapshot and Merge calls report this moment's values
// instead of re-reading live subsystem state. Call it before the probed
// subsystems are reset or reused (the pooled fleet driver materializes
// each vehicle's registry before releasing the vehicle back to its pool).
// Materializing again re-reads the probes. No-op on a nil registry.
func (r *Registry) Materialize() {
	if r == nil {
		return
	}
	if r.frozen == nil {
		r.frozen = make(map[string]float64, len(r.probes))
	}
	for k, fn := range r.probes {
		r.frozen[k] = fn()
	}
}

// Snapshot reads every instrument and returns the metrics sorted by key,
// so two snapshots of identical state are identical slices. Histograms
// flatten into count/mean/p50/p99/max sub-keys.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.probes)+len(r.frozen)+5*len(r.histograms))
	for k, c := range r.counters {
		out = append(out, Metric{Key: k, Kind: "counter", Value: float64(c.v)})
	}
	for k, g := range r.gauges {
		out = append(out, Metric{Key: k, Kind: "gauge", Value: g.v})
	}
	for k, fn := range r.probes {
		if _, ok := r.frozen[k]; ok {
			continue // materialized reading wins
		}
		out = append(out, Metric{Key: k, Kind: "probe", Value: fn()})
	}
	for k, v := range r.frozen {
		out = append(out, Metric{Key: k, Kind: "probe", Value: v})
	}
	for k, h := range r.histograms {
		out = append(out,
			Metric{Key: k + "/count", Kind: "histogram", Value: float64(h.count)},
			Metric{Key: k + "/mean", Kind: "histogram", Value: h.Mean()},
			Metric{Key: k + "/p50", Kind: "histogram", Value: h.Quantile(0.50)},
			Metric{Key: k + "/p99", Kind: "histogram", Value: h.Quantile(0.99)},
			Metric{Key: k + "/max", Kind: "histogram", Value: h.max},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FormatValue renders a metric value the way the experiments tables
// expect: integral values print as integers, everything else with up to
// six significant digits — both forms parse back as float64, which is
// what lets experiments.Aggregate fold replicated snapshots into mean ± CI.
func FormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}
