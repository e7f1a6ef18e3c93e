// Shard encoding: the allocation-lean capture path behind the fleet
// driver's metrics plane. Building a fresh Registry and Instrument-ing a
// vehicle into it costs a few microseconds and ~100 allocations — fine
// per simulation, fatal per vehicle at 1e5 vehicles. Instead the driver
// binds each worker's pooled vehicle to ONE scratch registry, Rewinds it
// between vehicles, and flattens each vehicle's readings into a Shard:
// two flat arrays whose slots are assigned by a ShardLayout built once
// per worker. The barrier then folds shards into the fleet registry in
// vehicle-index order via MergeInto, which performs arithmetic identical
// — operation for operation, in the same order — to Registry.Merge over
// materialized per-vehicle registries, so the two paths produce
// byte-identical snapshots (pinned by TestDriveObsMergedEqualsUnsharded).
package obs

import (
	"fmt"
	"sort"
)

// Rewind zeroes every instrument in place and drops materialized
// readings, while keeping the instrument objects, their keys, their
// bucket layouts — and the probe registrations. A pooled vehicle
// Instrument-ed once keeps feeding these instruments across Reset, and
// its probe closures bind to subsystem objects, not to a simulation run,
// so the vehicle re-run under a new seed is read correctly with no
// second Instrument. Callers that instrument a *different* object graph
// into a rewound registry must re-Instrument (overwriting the probe
// entries); callers that shrink the key set must build a fresh registry
// instead. This is the pooled-vehicle Reset discipline applied to the
// registry: construction wiring survives, run state does not.
func (r *Registry) Rewind() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.v = 0
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.count, h.sum, h.max = 0, 0, 0
	}
	for k := range r.frozen {
		delete(r.frozen, k)
	}
}

// ShardLayout assigns every instrument of one registry a fixed slot in
// the Shard arrays, in sorted-key order per instrument class. A layout
// is bound to the registry it was built from: it caches instrument
// pointers and probe closures so Export runs without map lookups.
// Rebuild the layout after anything other than Rewind touched the
// registry's key set or re-registered its probes.
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
// value capture like Materialize, at two allocations.
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

// Export flattens r's current readings into a fresh Shard, evaluating
// every probe now (the Materialize moment). Call it before the probed
// subsystems are reset or reused. Probes are read through the closures
// cached at layout-build time, which read the same objects for as long
// as the pooled vehicle they were registered for is reused.
func (l *ShardLayout) Export(r *Registry) Shard {
	s := Shard{
		ints:   make([]uint64, l.intLen),
		floats: make([]float64, l.floatLen),
	}
	l.exportInto(&s)
	return s
}

func (l *ShardLayout) exportInto(s *Shard) {
	ii, fi := 0, 0
	for _, c := range l.counterPtrs {
		s.ints[ii] = uint64(c.v)
		ii++
	}
	for _, g := range l.gaugePtrs {
		s.floats[fi] = g.v
		fi++
	}
	for _, fn := range l.probeFns {
		s.floats[fi] = fn()
		fi++
	}
	for _, h := range l.histPtrs {
		copy(s.ints[ii:ii+len(h.counts)], h.counts)
		ii += len(h.counts)
		s.ints[ii] = h.count
		ii++
		s.floats[fi] = h.sum
		s.floats[fi+1] = h.max
		fi += 2
	}
}

// ShardArena carves per-vehicle Shards for one layout out of two backing
// arrays sized up front, so a fleet worker's shard capture does zero
// per-vehicle allocations. Every slot of a carved shard is written by
// Export, so the arena never needs re-zeroing between vehicles.
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

// Export carves the next shard off the arena and fills it from r. When
// the arena is exhausted it falls back to a heap-allocated shard, so
// sizing is a performance concern, never a correctness one.
func (a *ShardArena) Export(r *Registry) Shard {
	l := a.layout
	if len(a.ints) < l.intLen || len(a.floats) < l.floatLen {
		return l.Export(r)
	}
	s := Shard{
		ints:   a.ints[:l.intLen:l.intLen],
		floats: a.floats[:l.floatLen:l.floatLen],
	}
	a.ints = a.ints[l.intLen:]
	a.floats = a.floats[l.floatLen:]
	l.exportInto(&s)
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
// acc and merging acc once is bit-identical to merging s0..sn into a
// fresh registry one by one: integer adds are associative, the float
// accumulators start at +0.0 (and IEEE-754 x+0.0 preserves every value
// a fold from +0.0 can produce), and the histogram count/max guards
// mirror MergeInto's exactly. This turns the per-vehicle barrier cost
// from a map-walk (MergeInto) into flat array arithmetic; the fleet
// driver accumulates every shard of a drive and merges once.
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

// MergeInto folds s into dst exactly as Registry.Merge would fold the
// registry s was exported from: counters and bucket counts add as
// integers, gauge levels, sums and probe readings add as float64 (in
// this layout's fixed key order — fold shards in one fixed order when
// byte-identical output matters), max merges as max-of-max with
// first-sample initialization. Missing dst keys are created on first
// merge; after that the path allocates nothing
// (TestFleetMergeSteadyStateAllocs).
func (l *ShardLayout) MergeInto(dst *Registry, s Shard) error {
	if dst == nil {
		return nil
	}
	if len(s.ints) != l.intLen || len(s.floats) != l.floatLen {
		return fmt.Errorf("obs: shard/layout mismatch: %d/%d values, layout wants %d/%d",
			len(s.ints), len(s.floats), l.intLen, l.floatLen)
	}
	ii, fi := 0, 0
	for _, k := range l.counterKeys {
		dst.Counter(k).v += int64(s.ints[ii])
		ii++
	}
	for _, k := range l.gaugeKeys {
		dst.Gauge(k).v += s.floats[fi]
		fi++
	}
	if len(l.probeKeys) > 0 && dst.frozen == nil {
		dst.frozen = make(map[string]float64, len(l.probeKeys))
	}
	for _, k := range l.probeKeys {
		dst.frozen[k] += s.floats[fi]
		fi++
	}
	for hi, k := range l.histKeys {
		h, ok := dst.histograms[k]
		if !ok {
			// Clone the layout's exact bounds (same rule as
			// Registry.Merge: the constructor's nil-means-default would
			// mismatch explicitly empty bounds).
			h = &Histogram{
				bounds: append([]float64(nil), l.bounds[hi]...),
				counts: make([]uint64, len(l.bounds[hi])+1),
			}
			dst.histograms[k] = h
		}
		n := len(h.counts)
		if n != len(l.bounds[hi])+1 {
			return fmt.Errorf("obs: shard merge: histogram %q has %d buckets, layout wants %d", k, n, len(l.bounds[hi])+1)
		}
		if cnt := s.ints[ii+n]; cnt > 0 {
			for j := 0; j < n; j++ {
				h.counts[j] += s.ints[ii+j]
			}
			if max := s.floats[fi+1]; h.count == 0 || max > h.max {
				h.max = max
			}
			h.count += cnt
			h.sum += s.floats[fi]
		}
		ii += n + 1
		fi += 2
	}
	return nil
}
