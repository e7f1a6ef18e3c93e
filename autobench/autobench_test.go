package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{10000, 0.999, true},
		{9999, 0.999, false},
		{100, 0.9, true},
		{99, 0.9, false},
	} {
		if got := tailAllowed(c.n, c.q); got != c.want {
			t.Errorf("tailAllowed(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    uint64
		want float64
	}{{20000, 0.999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0}, {0, 0}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := quantileName(0.999); got != "p99.9" {
		t.Errorf("quantileName(0.999) = %q", got)
	}
	if got := quantileName(0.99); got != "p99" {
		t.Errorf("quantileName(0.99) = %q", got)
	}
}

// sampleQuantile is the nearest-rank q-quantile of raw samples (sorted in
// place): the reference the histogram is checked against.
func sampleQuantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

func TestHistogramQuantilesMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h durHist
	raw := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		d := time.Duration(rng.ExpFloat64()*40e3) + 100
		h.add(d)
		raw = append(raw, float64(d))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := sampleQuantile(raw, q)
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v: histogram %.0f ns, samples %.0f ns (> 1%% apart)", q, got, want)
		}
	}
	for _, ns := range []uint64{0, 1, 127, 128, 255, 256, 1000, 123456789, 1 << 62} {
		v := bucketValue(bucketOf(ns))
		if math.Abs(v-float64(ns)) > float64(ns)/(1<<subBits)+0.5 {
			t.Errorf("bucket of %d recovers %.1f", ns, v)
		}
	}
}

// spanAt builds a span from microsecond offsets.
func spanAt(name string, start, end int, parent SpanRef) Span {
	return Span{Name: name, Start: time.Duration(start) * time.Microsecond,
		End: time.Duration(end) * time.Microsecond, Parent: parent}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	rec := NewRecorder(false)
	tr := rec.NewTrack("coordinator", 1, "")
	root := tr.Add(spanAt("root", 0, 100, noSpan))
	child := tr.Add(spanAt("child", 10, 40, root))
	tr.Add(spanAt("grandchild", 20, 30, child))
	tr.Add(spanAt("child", 50, 60, root))

	want := map[string]time.Duration{
		"root":       60 * time.Microsecond, // 100 - 30 - 10
		"child":      30 * time.Microsecond, // (30 - 10) + 10
		"grandchild": 10 * time.Microsecond,
	}
	var sum time.Duration
	for _, l := range rec.Layers() {
		if l.Self != want[l.Name] {
			t.Errorf("%s self = %v, want %v", l.Name, l.Self, want[l.Name])
		}
		sum += l.Self
	}
	if sum != 100*time.Microsecond {
		t.Errorf("self times add up to %v, want the root's 100us", sum)
	}
}

func TestSelfTimeWeightsParallelTracks(t *testing.T) {
	rec := NewRecorder(false)
	coord := rec.NewTrack("coordinator", 1, "")
	drive := coord.Add(spanAt("drive", 0, 100, noSpan))
	for w := 0; w < 2; w++ {
		tr := rec.NewTrack("shard", 0.5, "drive")
		cb := tr.Add(spanAt("callback", 0, 70, drive))
		tr.Add(spanAt("run", 10, 60, cb))
		tr.Add(spanAt("gap", 70, 100, drive))
	}
	ls := rec.Layers()
	if got := layerOf(ls, "drive").Self; got != 0 {
		t.Errorf("drive self = %v, want 0: both shards cover it", got)
	}
	// Each shard contributes half its track time to wall time.
	if got := layerOf(ls, "run"); got.Self != 50*time.Microsecond || got.Raw != 100*time.Microsecond {
		t.Errorf("run self = %v raw %v, want 50us raw 100us", got.Self, got.Raw)
	}
	if got := layerOf(ls, "callback").Self; got != 20*time.Microsecond {
		t.Errorf("callback self = %v, want 20us", got)
	}
	var sum time.Duration
	for _, l := range ls {
		sum += l.Self
	}
	if sum != 100*time.Microsecond {
		t.Errorf("weighted self times add up to %v, want the drive's 100us", sum)
	}
}

func TestTrackNestingSetsParents(t *testing.T) {
	rec := NewRecorder(true)
	rec.Label("outer", "inner")
	tr := rec.NewTrack("t", 1, "")
	outer := tr.Begin("outer", 3, noSpan)
	inner := tr.Begin("inner", 3, SpanRef{Track: 9, Idx: 9})
	tr.End()
	tr.End()
	if got := tr.spans[inner.Idx].Parent; got != outer {
		t.Errorf("inner parent = %+v, want the open outer span %+v", got, outer)
	}
	if got := tr.spans[outer.Idx].Parent; got != noSpan {
		t.Errorf("outer parent = %+v, want none", got)
	}
	var nilTrack *Track
	if ref := nilTrack.Begin("x", 0, noSpan); ref != noSpan {
		t.Errorf("nil track recorded a span")
	}
	nilTrack.End()
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.reset_us", "sim.ns_per_step", "op-p99", "0x"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "_lead", ".lead", "héllo", "p99%",
		"a2345678901234567890123456789012345678901234567890123456789012345"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !validMetricName(m.name) {
			t.Errorf("defined metric %q is invalid", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestGapAttributionOnSyntheticShard(t *testing.T) {
	us := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Microsecond
		}
		return out
	}
	tl := shardTimeline{
		driveStart: 0, driveEnd: 60 * time.Microsecond,
		starts: us(10, 25, 45),
		ends:   us(20, 40, 50),
	}
	g := attributeGaps(tl)
	if g.build != 10*time.Microsecond {
		t.Errorf("build = %v, want 10us (drive start to first callback)", g.build)
	}
	if want := us(5, 5); len(g.resets) != 2 || g.resets[0] != want[0] || g.resets[1] != want[1] {
		t.Errorf("resets = %v, want %v", g.resets, want)
	}
	if g.tail != 10*time.Microsecond {
		t.Errorf("tail = %v, want 10us", g.tail)
	}
	if want := us(20, 20, 10); len(g.ops) != 3 || g.ops[0] != want[0] || g.ops[1] != want[1] || g.ops[2] != want[2] {
		t.Errorf("ops = %v, want %v", g.ops, want)
	}
	// Build, resets, callbacks and tail tile the drive exactly.
	total := g.build + g.tail
	for _, r := range g.resets {
		total += r
	}
	for i := range tl.starts {
		total += tl.ends[i] - tl.starts[i]
	}
	if total != tl.driveEnd-tl.driveStart {
		t.Errorf("attribution covers %v of a %v drive", total, tl.driveEnd-tl.driveStart)
	}
	if g := attributeGaps(shardTimeline{driveEnd: 5}); g.tail != 5 || len(g.ops) != 0 {
		t.Errorf("empty shard: %+v", g)
	}
}

func TestShardBoundsPartition(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{2000, 2}, {7, 3}, {3, 8}, {1, 1}} {
		next := 0
		for w := 0; w < min(c.workers, c.n); w++ {
			lo, hi := shardBounds(c.n, c.workers, w)
			if lo != next || hi < lo || hi-lo > c.n/min(c.workers, c.n)+1 {
				t.Fatalf("n=%d workers=%d shard %d = [%d,%d)", c.n, c.workers, w, lo, hi)
			}
			next = hi
		}
		if next != c.n {
			t.Errorf("n=%d workers=%d: shards end at %d", c.n, c.workers, next)
		}
	}
}

func TestSoakCheckpointsCoverTheHorizon(t *testing.T) {
	for _, c := range []struct {
		slices int
		want   []int
	}{
		{500, []int{150, 300, 450, 500}},
		{450, []int{150, 300, 450}},
		{100, []int{100}},
	} {
		if got := soakCheckpoints(c.slices); !slices.Equal(got, c.want) {
			t.Errorf("soakCheckpoints(%d) = %v, want %v", c.slices, got, c.want)
		}
	}
}

func TestDigestPinsParse(t *testing.T) {
	why := "long-lived vehicle. Seed-1 sim_digest 70f3c6b0c98f4cd1, end_digest@5m0s 0123456789abcdef"
	got := map[string]string{}
	for _, m := range pinRE.FindAllStringSubmatch(why, -1) {
		got[m[1]] = m[2]
	}
	want := map[string]string{"sim_digest": "70f3c6b0c98f4cd1", "end_digest@5m0s": "0123456789abcdef"}
	if len(got) != len(want) || got["sim_digest"] != want["sim_digest"] || got["end_digest@5m0s"] != want["end_digest@5m0s"] {
		t.Errorf("pins = %v, want %v", got, want)
	}
}
