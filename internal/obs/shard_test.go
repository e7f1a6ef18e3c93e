package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// shardTestRegistry builds a registry with every instrument class and
// fills it with values derived from rng — arbitrary float64s, not just
// exactly-representable ones, because the shard fold's bit-identity
// claims hold for all inputs (fold-from-+0.0, see Accumulate).
func shardTestRegistry(rng *rand.Rand) *Registry {
	r := NewRegistry()
	r.Counter("a/events").Add(int64(rng.Intn(100)))
	r.Counter("b/drops").Add(int64(rng.Intn(10)))
	r.Gauge("a/level").Set(rng.NormFloat64())
	r.Gauge("z/depth").Set(rng.NormFloat64() * 1e-3)
	r.Gauge("z/negzero").Set(math.Copysign(0, -1)) // merges render it as +0
	h := r.Histogram("a/lat_us", []float64{1, 10, 100})
	for i, n := 0, rng.Intn(8); i < n; i++ {
		h.Observe(rng.NormFloat64() * 50)
	}
	p1, p2 := rng.NormFloat64(), rng.Float64()*1e6
	r.Probe("a/probe", func() float64 { return p1 })
	r.Probe("q/probe", func() float64 { return p2 })
	return r
}

func promBytes(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardRoundTrip pins Capture+Registry against Materialize+Merge:
// flattening a registry through a shard and building a registry from it
// must reproduce the registry-to-registry merge bit for bit.
func TestShardRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		src := shardTestRegistry(rng)
		src.Materialize()
		viaMerge := NewRegistry()
		if err := viaMerge.Merge(src); err != nil {
			t.Fatal(err)
		}
		layout := NewShardLayout(src)
		viaShard, err := layout.Registry(layout.NewArena(1).Capture())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaShard.Snapshot(), viaMerge.Snapshot()) {
			t.Fatalf("trial %d: shard round trip diverged from Merge:\n%v\n%v",
				trial, viaShard.Snapshot(), viaMerge.Snapshot())
		}
		if !bytes.Equal(promBytes(t, viaShard), promBytes(t, viaMerge)) {
			t.Fatalf("trial %d: shard round trip exposition diverged from Merge", trial)
		}
	}
}

// TestAccumulateEqualsSequentialMerge pins the barrier fold: summing
// shards into one accumulator and building a registry from the sum must
// be bit-identical to merging each captured registry into a fresh
// registry in the same order.
func TestAccumulateEqualsSequentialMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(9)
		var layout *ShardLayout
		shards := make([]Shard, n)
		sequential := NewRegistry()
		for i := range shards {
			src := shardTestRegistry(rng)
			src.Materialize()
			if err := sequential.Merge(src); err != nil {
				t.Fatal(err)
			}
			l := NewShardLayout(src)
			if layout == nil {
				layout = l
			} else if !layout.EqualShape(l) {
				t.Fatal("test registries must be shape-equal")
			}
			shards[i] = l.NewArena(1).Capture()
		}

		var acc Shard
		for _, s := range shards {
			if err := layout.Accumulate(&acc, s); err != nil {
				t.Fatal(err)
			}
		}
		accumulated, err := layout.Registry(acc)
		if err != nil {
			t.Fatal(err)
		}

		sa, sb := sequential.Snapshot(), accumulated.Snapshot()
		if len(sa) != len(sb) {
			t.Fatalf("trial %d: snapshot sizes differ: %d vs %d", trial, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i].Key != sb[i].Key || sa[i].Kind != sb[i].Kind {
				t.Fatalf("trial %d: snapshot keys differ at %d: %+v vs %+v", trial, i, sa[i], sb[i])
			}
			if math.Float64bits(sa[i].Value) != math.Float64bits(sb[i].Value) {
				t.Fatalf("trial %d: %q differs bitwise: %v vs %v", trial, sa[i].Key, sa[i].Value, sb[i].Value)
			}
		}
		// The exposition includes the exact histogram _sum, which the
		// flattened snapshot only covers through the mean.
		if !bytes.Equal(promBytes(t, sequential), promBytes(t, accumulated)) {
			t.Fatalf("trial %d: accumulated exposition diverged from sequential merge", trial)
		}
	}
}

// TestCaptureZeroesAndKeepsProbes pins the capture contract the fleet
// driver depends on: a shard holds the registry's readings, every
// counter, gauge and histogram reads zero afterwards and keeps feeding
// the registry through its bound pointer, and probe registrations
// survive. A capture past the arena's size allocates its own shard and
// leaves the earlier ones intact.
func TestCaptureZeroesAndKeepsProbes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	g := r.Gauge("g")
	g.Set(4)
	h := r.Histogram("h", []float64{10})
	h.Observe(-3)
	live := 7.0
	r.Probe("p", func() float64 { return live })
	layout := NewShardLayout(r)
	arena := layout.NewArena(1)

	read := func(r *Registry) map[string]float64 {
		out := map[string]float64{}
		for _, m := range r.Snapshot() {
			out[m.Key] = m.Value
		}
		return out
	}
	check := func(what string, got, want map[string]float64) {
		t.Helper()
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %q = %v, want %v", what, k, got[k], v)
			}
		}
	}

	first := arena.Capture()
	live = 11
	check("after a capture", read(r), map[string]float64{"c": 0, "g": 0, "p": 11, "h/count": 0, "h/max": 0})

	c.Inc()
	h.Observe(20)
	second := arena.Capture() // the arena held one shard: this one is allocated
	for _, tc := range []struct {
		name string
		s    Shard
		want map[string]float64
	}{
		{"first capture", first, map[string]float64{"c": 3, "g": 4, "p": 7, "h/count": 1, "h/max": -3}},
		{"second capture", second, map[string]float64{"c": 1, "g": 0, "p": 11, "h/count": 1, "h/max": 20}},
	} {
		got, err := layout.Registry(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name, read(got), tc.want)
	}
}

// TestEqualShape covers the structural comparison the fleet barrier uses
// to pre-sum shards exported under distinct per-worker layouts.
func TestEqualShape(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := NewShardLayout(shardTestRegistry(rng))
	b := NewShardLayout(shardTestRegistry(rng))
	if !a.EqualShape(b) || !b.EqualShape(a) {
		t.Fatal("identically-shaped registries must compare shape-equal")
	}

	extra := shardTestRegistry(rng)
	extra.Counter("zz/extra").Inc()
	if a.EqualShape(NewShardLayout(extra)) {
		t.Fatal("extra counter key must break shape equality")
	}

	rebound := shardTestRegistry(rng)
	rebound.Histogram("other/lat", []float64{5, 50})
	if a.EqualShape(NewShardLayout(rebound)) {
		t.Fatal("different histogram key set must break shape equality")
	}
}
