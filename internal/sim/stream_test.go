package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterministicByName(t *testing.T) {
	a := NewStream(7, "x")
	b := NewStream(7, "x")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed,name) diverged at %d", i)
		}
	}
}

func TestStreamIndependentByName(t *testing.T) {
	a := NewStream(7, "x")
	b := NewStream(7, "y")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names collided %d/1000 times", same)
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(1, "f")
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestStreamIntnRange(t *testing.T) {
	s := NewStream(1, "i")
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 10k draws", len(seen))
	}
}

func TestStreamIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1, "p").Intn(0)
}

func TestStreamNormMoments(t *testing.T) {
	s := NewStream(3, "g")
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance %.4f, want ~1", variance)
	}
}

func TestStreamExpMean(t *testing.T) {
	s := NewStream(3, "e")
	n := 100000
	rate := 4.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp(%v) mean %.4f, want %.4f", rate, mean, 1/rate)
	}
}

func TestStreamBool(t *testing.T) {
	s := NewStream(5, "b")
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit rate %.4f", frac)
	}
}

func TestStreamPerm(t *testing.T) {
	s := NewStream(5, "perm")
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestStreamDurationBounds(t *testing.T) {
	s := NewStream(5, "d")
	for i := 0; i < 1000; i++ {
		d := s.Duration(10, 20)
		if d < 10 || d > 20 {
			t.Fatalf("Duration out of bounds: %v", d)
		}
	}
	if d := s.Duration(30, 30); d != 30 {
		t.Fatalf("degenerate Duration = %v, want 30", d)
	}
	if d := s.Duration(30, 10); d != 30 {
		t.Fatalf("inverted Duration = %v, want lo", d)
	}
}

func TestStreamPick(t *testing.T) {
	s := NewStream(9, "pick")
	counts := make([]int, 3)
	w := []float64{1, 2, 7}
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Pick(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pick weight %d: got %.3f, want %.3f", i, got, want)
		}
	}
}

func TestStreamPickPanics(t *testing.T) {
	s := NewStream(9, "pp")
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%v) did not panic", w)
				}
			}()
			s.Pick(w)
		}()
	}
}

func TestStreamBytes(t *testing.T) {
	s := NewStream(11, "bytes")
	b := make([]byte, 37)
	s.Bytes(b)
	zero := 0
	for _, x := range b {
		if x == 0 {
			zero++
		}
	}
	if zero > 5 {
		t.Fatalf("suspiciously many zero bytes: %d/37", zero)
	}
}

// Property: Jitter stays within the requested fraction, less the
// sub-nanosecond truncation below d*0.9.
func TestStreamJitterProperty(t *testing.T) {
	s := NewStream(13, "jitter")
	f := func(raw uint32) bool {
		d := Duration(raw%1000000 + 1)
		j := s.Jitter(d, 0.1)
		lo := math.Floor(float64(d) * 0.899)
		hi := float64(d) * 1.101
		return float64(j) >= lo && float64(j) <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStreamJitterTruncation pins Jitter's truncation at nanosecond
// scale: over 1,000 fixed-seed draws, Jitter(d, 0.1) returns exactly the
// whole nanoseconds in [d*0.9, d*1.1] truncated, each of them at least
// once. d = 4 and 19 are the sizes that made the property above flaky
// before its lower bound admitted the truncation.
func TestStreamJitterTruncation(t *testing.T) {
	for _, tc := range []struct {
		d    Duration
		want []Duration
	}{
		{1, []Duration{0, 1}},
		{4, []Duration{3, 4}},
		{19, []Duration{17, 18, 19, 20}},
	} {
		s := NewStream(13, "jitter")
		seen := map[Duration]int{}
		for i := 0; i < 1000; i++ {
			seen[s.Jitter(tc.d, 0.1)]++
		}
		if len(seen) != len(tc.want) {
			t.Errorf("Jitter(%d, 0.1) drew %v, want each of %v", tc.d, seen, tc.want)
			continue
		}
		for _, w := range tc.want {
			if seen[w] == 0 {
				t.Errorf("Jitter(%d, 0.1) drew %v, want each of %v", tc.d, seen, tc.want)
				break
			}
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Observe(v)
	}
	if s.N() != 5 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("mean=%v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Errorf("p50=%v", q)
	}
	if v := s.Var(); math.Abs(v-2) > 1e-9 {
		t.Errorf("var=%v, want 2", v)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 {
		t.Error("empty summary moments should be 0")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Error("empty min/max sentinels wrong")
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if s.String() != "n=0" {
		t.Errorf("String=%q", s.String())
	}
}

func TestCounter(t *testing.T) {
	c := Counter{Name: "frames"}
	c.Inc()
	c.Add(4)
	if c.Value != 5 {
		t.Fatalf("counter=%d", c.Value)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestRate(t *testing.T) {
	r := Rate{Events: 500, Since: 0}
	if got := r.PerSecond(Second); got != 500 {
		t.Fatalf("rate=%v", got)
	}
	if got := r.PerSecond(0); got != 0 {
		t.Fatalf("zero-span rate=%v", got)
	}
}

func TestSummaryReserve(t *testing.T) {
	var s Summary
	s.Observe(2)
	s.Observe(1)
	s.Reserve(2000)
	if s.N() != 2 || s.Min() != 1 || s.Max() != 2 {
		t.Fatalf("Reserve disturbed samples: n=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
	// The reserved buffer must absorb 2000 further observations without
	// reallocating (AllocsPerRun makes one warm-up call plus one measured
	// call, 1000 observations each).
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			s.Observe(float64(i))
		}
	}); allocs != 0 {
		t.Fatalf("Observe allocated %v times after Reserve, want 0", allocs)
	}
	s.Reserve(0)  // no-op
	s.Reserve(-5) // no-op
	if s.N() != 2002 {
		t.Fatalf("n=%d after observes, want 2002", s.N())
	}
}

// Back-to-back order-statistic reads share one sort; interleaved observes
// invalidate it; pre-ordered sample sets are detected without re-sorting.
func TestSummaryQuantileConsistency(t *testing.T) {
	var s Summary
	for i := 100; i > 0; i-- {
		s.Observe(float64(i))
	}
	if s.Quantile(0.5) != 50 || s.Quantile(0.99) != 99 || s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("order statistics wrong: p50=%v p99=%v min=%v max=%v",
			s.Quantile(0.5), s.Quantile(0.99), s.Min(), s.Max())
	}
	s.Observe(0.5)
	if s.Min() != 0.5 || s.Quantile(1) != 100 {
		t.Fatalf("post-observe order statistics wrong: min=%v max=%v", s.Min(), s.Quantile(1))
	}
}
