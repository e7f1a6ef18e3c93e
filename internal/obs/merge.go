// Mergeable instruments: the fleet-scale half of the observability
// layer. A per-vehicle registry is a shard of the fleet's telemetry;
// Registry.Merge folds shards into one fleet registry exactly — counters
// and histogram bucket counts add as integers, histogram sums and probe
// readings add as float64, and max merges as max-of-max — so a vehicle
// SOC view aggregates without losing the underlying distributions.
//
// Determinism contract: Merge itself is deterministic for a given
// (dst, src) pair, and integer state is associative, but float64 addition
// is not — merging shards in different orders can differ in the last ULP.
// Callers that need byte-identical aggregates at any worker count must
// therefore fold shards in one fixed order at a single merge point;
// fleet.DriveObs does exactly that (vehicle-index order at the drive
// barrier — see DESIGN.md "Merge at the barrier").
//
// The merge hot path allocates nothing once the destination registry
// holds the union of keys (first merge creates them); the fleet driver's
// steady state is pinned by TestFleetMergeSteadyStateAllocs.
package obs

import "fmt"

// Merge adds src's count into c. Nil receivers and nil sources are both
// valid (disabled instruments merge as zero).
func (c *Counter) Merge(src *Counter) {
	if c == nil || src == nil {
		return
	}
	c.v += src.v
}

// Merge adds src's level into g: the fleet aggregate of a per-vehicle
// level is the sum (report means by dividing by the population).
func (g *Gauge) Merge(src *Gauge) {
	if g == nil || src == nil {
		return
	}
	g.v += src.v
}

// Merge folds src into h: bucket counts, total count and sum add; max is
// the max over both (respecting first-sample initialization, so merging
// an all-negative histogram into an empty one keeps the negative max).
// The histograms must have identical bucket bounds — merging estimates
// across different bucketings would silently corrupt quantiles, so a
// mismatch is an error. Nil receiver or source is a no-op.
func (h *Histogram) Merge(src *Histogram) error {
	if h == nil || src == nil || src.count == 0 {
		return nil
	}
	if len(h.bounds) != len(src.bounds) {
		return fmt.Errorf("obs: histogram merge: %d vs %d bucket bounds", len(h.bounds), len(src.bounds))
	}
	for i, b := range h.bounds {
		if src.bounds[i] != b {
			return fmt.Errorf("obs: histogram merge: bound %d differs (%v vs %v)", i, b, src.bounds[i])
		}
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	for i, c := range src.counts {
		h.counts[i] += c
	}
	h.count += src.count
	h.sum += src.sum
	return nil
}

// Merge folds src's instruments into r, key by key: counters, gauges and
// histograms merge exactly (see the instrument Merge methods); probe
// readings — src's materialized values if it was Materialized, live
// fn() readings otherwise — accumulate into r's frozen map, so the
// merged registry snapshots them as ordinary "probe" rows without
// holding closures into src's subsystems. Missing keys are created on
// first merge (histograms clone src's bounds); after that the merge
// path allocates nothing.
//
// Merge is NOT associativity-safe for float64 state (gauge levels,
// histogram sums, probe readings): fold shards in one fixed order when
// byte-identical output matters. It returns the first histogram
// bound-mismatch error, leaving earlier keys merged.
func (r *Registry) Merge(src *Registry) error {
	if r == nil || src == nil {
		return nil
	}
	for k, c := range src.counters {
		r.Counter(k).Merge(c)
	}
	for k, g := range src.gauges {
		r.Gauge(k).Merge(g)
	}
	for k, h := range src.histograms {
		dst, ok := r.histograms[k]
		if !ok {
			// Clone src's exact bounds rather than going through the
			// Histogram constructor: nil bounds there means "default
			// buckets", which would mismatch a source registered with
			// explicitly empty bounds.
			dst = &Histogram{
				bounds: append([]float64(nil), h.bounds...),
				counts: make([]uint64, len(h.counts)),
			}
			r.histograms[k] = dst
		}
		if err := dst.Merge(h); err != nil {
			return fmt.Errorf("%w (key %q)", err, k)
		}
	}
	if len(src.probes)+len(src.frozen) > 0 && r.frozen == nil {
		r.frozen = make(map[string]float64, len(src.probes)+len(src.frozen))
	}
	for k, fn := range src.probes {
		if _, ok := src.frozen[k]; ok {
			continue // materialized reading wins, same rule as Snapshot
		}
		r.frozen[k] += fn()
	}
	for k, v := range src.frozen {
		r.frozen[k] += v
	}
	return nil
}
