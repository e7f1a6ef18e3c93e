// Shard encoding: the allocation-lean capture path behind the fleet
// driver's metrics plane. Building a fresh Registry and Instrument-ing a
// vehicle into it costs a few microseconds and ~100 allocations — fine
// per simulation, fatal per vehicle at 1e5 vehicles. Instead the driver
// binds each worker's pooled vehicle to ONE scratch registry and
// captures each vehicle's readings into a Shard: two flat arrays whose
// slots are assigned by a ShardLayout built once per worker. A capture
// reads every instrument through the layout's cached pointers and zeroes
// it in the same pass, so the registry starts the next vehicle at zero
// with no second walk. The barrier sums the shards in vehicle-index
// order with Accumulate and builds the fleet registry from the sum with
// ShardLayout.Registry; the result is bit-identical to Registry.Merge
// over materialized per-vehicle registries in the same order (pinned by
// TestDriveObsMergedEqualsUnsharded).
package obs

import (
	"fmt"
	"sort"
)

// ShardLayout assigns every instrument of one registry a fixed slot in
// the Shard arrays, in sorted-key order per instrument class. A layout
// is bound to the registry it was built from: it caches instrument
// pointers and probe closures so a capture runs without map lookups.
// Rebuild the layout after anything touched the registry's key set or
// re-registered its probes.
type ShardLayout struct {
	counterKeys []string
	gaugeKeys   []string
	probeKeys   []string
	histKeys    []string

	counterPtrs []*Counter
	gaugePtrs   []*Gauge
	probeFns    []func() float64
	histPtrs    []*Histogram
	bounds      [][]float64

	intLen   int // counters, then per-histogram counts+count
	floatLen int // gauges, then probes, then per-histogram sum+max
}

// Shard is one vehicle's flattened readings under some ShardLayout: a
// value capture like Materialize.
type Shard struct {
	ints   []uint64
	floats []float64
}

// NewShardLayout builds the slot assignment for r's current key set.
func NewShardLayout(r *Registry) *ShardLayout {
	l := &ShardLayout{}
	for k := range r.counters {
		l.counterKeys = append(l.counterKeys, k)
	}
	for k := range r.gauges {
		l.gaugeKeys = append(l.gaugeKeys, k)
	}
	for k := range r.probes {
		l.probeKeys = append(l.probeKeys, k)
	}
	for k := range r.histograms {
		l.histKeys = append(l.histKeys, k)
	}
	sort.Strings(l.counterKeys)
	sort.Strings(l.gaugeKeys)
	sort.Strings(l.probeKeys)
	sort.Strings(l.histKeys)
	for _, k := range l.counterKeys {
		l.counterPtrs = append(l.counterPtrs, r.counters[k])
	}
	for _, k := range l.gaugeKeys {
		l.gaugePtrs = append(l.gaugePtrs, r.gauges[k])
	}
	for _, k := range l.probeKeys {
		l.probeFns = append(l.probeFns, r.probes[k])
	}
	l.intLen = len(l.counterKeys)
	l.floatLen = len(l.gaugeKeys) + len(l.probeKeys)
	for _, k := range l.histKeys {
		h := r.histograms[k]
		l.histPtrs = append(l.histPtrs, h)
		l.bounds = append(l.bounds, h.bounds)
		l.intLen += len(h.counts) + 1
		l.floatLen += 2
	}
	return l
}

// ShardArena carves per-vehicle Shards for one layout out of two backing
// arrays sized up front, so a fleet worker's shard capture does zero
// per-vehicle allocations. Every slot of a carved shard is written by
// Capture, so the arena never needs re-zeroing between vehicles.
type ShardArena struct {
	layout *ShardLayout
	ints   []uint64
	floats []float64
}

// NewArena preallocates backing for n shards of this layout.
func (l *ShardLayout) NewArena(n int) *ShardArena {
	return &ShardArena{
		layout: l,
		ints:   make([]uint64, n*l.intLen),
		floats: make([]float64, n*l.floatLen),
	}
}

// Capture carves the next shard off the arena and fills it with the
// layout's registry's readings, evaluating every probe now (the
// Materialize moment): call it before the probed subsystems are reset
// or reused. Every counter, gauge and histogram is zeroed as it is read,
// keeping its key, bounds and binding, so the registry's next reading
// starts from zero; probe registrations are untouched. Probes are read
// through the closures cached at layout-build time, which read the same
// objects for as long as the pooled vehicle they were registered for is
// reused. An exhausted arena allocates the shard, so sizing is a
// performance concern, never a correctness one.
func (a *ShardArena) Capture() Shard {
	l := a.layout
	var s Shard
	if len(a.ints) < l.intLen || len(a.floats) < l.floatLen {
		s = Shard{ints: make([]uint64, l.intLen), floats: make([]float64, l.floatLen)}
	} else {
		s = Shard{ints: a.ints[:l.intLen:l.intLen], floats: a.floats[:l.floatLen:l.floatLen]}
		a.ints = a.ints[l.intLen:]
		a.floats = a.floats[l.floatLen:]
	}
	ii, fi := 0, 0
	for _, c := range l.counterPtrs {
		s.ints[ii] = uint64(c.v)
		c.v = 0
		ii++
	}
	for _, g := range l.gaugePtrs {
		s.floats[fi] = g.v
		g.v = 0
		fi++
	}
	for _, fn := range l.probeFns {
		s.floats[fi] = fn()
		fi++
	}
	for _, h := range l.histPtrs {
		copy(s.ints[ii:ii+len(h.counts)], h.counts)
		clear(h.counts)
		ii += len(h.counts)
		s.ints[ii] = h.count
		ii++
		s.floats[fi] = h.sum
		s.floats[fi+1] = h.max
		h.count, h.sum, h.max = 0, 0, 0
		fi += 2
	}
	return s
}

// EqualShape reports whether o assigns the exact same slots as l: same
// keys per class (sorted, so set equality implies order equality) and
// same histogram bounds. Two workers instrumenting identically-shaped
// vehicles build distinct layout objects with equal shape; their shards
// may be accumulated under either layout.
func (l *ShardLayout) EqualShape(o *ShardLayout) bool {
	if l == o {
		return true
	}
	eq := func(a, b []string) bool {
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
	if !eq(l.counterKeys, o.counterKeys) || !eq(l.gaugeKeys, o.gaugeKeys) ||
		!eq(l.probeKeys, o.probeKeys) || !eq(l.histKeys, o.histKeys) {
		return false
	}
	for i := range l.bounds {
		if len(l.bounds[i]) != len(o.bounds[i]) {
			return false
		}
		for j := range l.bounds[i] {
			if l.bounds[i][j] != o.bounds[i][j] {
				return false
			}
		}
	}
	return true
}

// Accumulate folds s into acc element-wise, initializing acc to the
// layout's zero shard on first use. Folding shards s0..sn into a zero
// acc and building a registry from it (ShardLayout.Registry) is
// bit-identical to merging the captured registries into a fresh one by
// one (Registry.Merge): integer adds are associative, the float
// accumulators start at +0.0 as a fresh registry's instruments do, and
// the histogram count/max guards mirror Histogram.Merge's exactly. The
// per-vehicle barrier cost is flat array arithmetic; the fleet driver
// accumulates every shard of a drive and builds one registry.
func (l *ShardLayout) Accumulate(acc *Shard, s Shard) error {
	if len(s.ints) != l.intLen || len(s.floats) != l.floatLen {
		return fmt.Errorf("obs: shard/layout mismatch: %d/%d values, layout wants %d/%d",
			len(s.ints), len(s.floats), l.intLen, l.floatLen)
	}
	if acc.ints == nil && acc.floats == nil {
		acc.ints = make([]uint64, l.intLen)
		acc.floats = make([]float64, l.floatLen)
	} else if len(acc.ints) != l.intLen || len(acc.floats) != l.floatLen {
		return fmt.Errorf("obs: accumulator/layout mismatch: %d/%d values, layout wants %d/%d",
			len(acc.ints), len(acc.floats), l.intLen, l.floatLen)
	}
	ii := len(l.counterKeys)
	for i := 0; i < ii; i++ {
		acc.ints[i] += s.ints[i]
	}
	fi := len(l.gaugeKeys) + len(l.probeKeys)
	for i := 0; i < fi; i++ {
		acc.floats[i] += s.floats[i]
	}
	for hi := range l.histKeys {
		n := len(l.bounds[hi]) + 1
		if cnt := s.ints[ii+n]; cnt > 0 {
			for j := 0; j < n; j++ {
				acc.ints[ii+j] += s.ints[ii+j]
			}
			if max := s.floats[fi+1]; acc.ints[ii+n] == 0 || max > acc.floats[fi+1] {
				acc.floats[fi+1] = max
			}
			acc.ints[ii+n] += cnt
			acc.floats[fi] += s.floats[fi]
		}
		ii += n + 1
		fi += 2
	}
	return nil
}

// Registry builds a registry holding sum, a shard of this layout
// (typically a drive's Accumulate total). Counters and histogram bucket
// counts are taken as integers; gauge levels, probe readings and
// histogram sums are added to +0.0, as Registry.Merge adds them into a
// fresh registry, so a -0.0 reading renders as +0.0 on both paths.
// Probe readings become frozen "probe" rows: the result holds no
// closures into the captured subsystems.
func (l *ShardLayout) Registry(sum Shard) (*Registry, error) {
	if len(sum.ints) != l.intLen || len(sum.floats) != l.floatLen {
		return nil, fmt.Errorf("obs: shard/layout mismatch: %d/%d values, layout wants %d/%d",
			len(sum.ints), len(sum.floats), l.intLen, l.floatLen)
	}
	r := NewRegistry()
	ii, fi := 0, 0
	for _, k := range l.counterKeys {
		r.counters[k] = &Counter{v: int64(sum.ints[ii])}
		ii++
	}
	for _, k := range l.gaugeKeys {
		r.gauges[k] = &Gauge{v: 0 + sum.floats[fi]}
		fi++
	}
	if len(l.probeKeys) > 0 {
		r.frozen = make(map[string]float64, len(l.probeKeys))
	}
	for _, k := range l.probeKeys {
		r.frozen[k] = 0 + sum.floats[fi]
		fi++
	}
	for hi, k := range l.histKeys {
		n := len(l.bounds[hi]) + 1
		// Clone the layout's exact bounds (same rule as Registry.Merge:
		// the constructor's nil-means-default would mismatch explicitly
		// empty bounds).
		h := &Histogram{bounds: append([]float64(nil), l.bounds[hi]...), counts: make([]uint64, n)}
		if cnt := sum.ints[ii+n]; cnt > 0 {
			copy(h.counts, sum.ints[ii:ii+n])
			h.count, h.sum, h.max = cnt, 0+sum.floats[fi], sum.floats[fi+1]
		}
		r.histograms[k] = h
		ii += n + 1
		fi += 2
	}
	return r, nil
}
