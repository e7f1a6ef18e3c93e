package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, d := range []Duration{5 * Millisecond, 1 * Millisecond, 3 * Millisecond} {
		d := d
		k.At(d, func() { got = append(got, k.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1 * Millisecond, 3 * Millisecond, 5 * Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelFIFOAmongEqualDeadlines(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Millisecond, func() { order = append(order, i) })
	}
	_ = k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d]=%d, want FIFO", i, v)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	e := k.At(Millisecond, func() { ran = true })
	k.Cancel(e)
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	_ = k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// After the run the node has been reclaimed; the handle is stale and
	// inert: it reports false and a second Cancel through it is a no-op.
	if e.Cancelled() {
		t.Fatal("stale handle still reports cancelled")
	}
	k.Cancel(e)
}

// A stale handle must never cancel the recycled node's new occupant.
func TestKernelStaleHandleIsInert(t *testing.T) {
	k := NewKernel(1)
	first := k.At(Millisecond, func() {})
	_ = k.Run() // first's node returns to the free list
	ran := false
	second := k.At(2*Millisecond, func() { ran = true }) // reuses the node
	k.Cancel(first)                                      // stale: must not touch second
	if k.Pending() != 1 {
		t.Fatalf("pending=%d after stale cancel, want 1", k.Pending())
	}
	_ = k.Run()
	if !ran {
		t.Fatal("stale Cancel killed a live event")
	}
	_ = second
}

func TestKernelSchedulingInsideEvents(t *testing.T) {
	k := NewKernel(1)
	var hits int
	k.At(0, func() {
		k.After(2*Millisecond, func() { hits++ })
		k.After(Millisecond, func() { hits++ })
	})
	_ = k.Run()
	if hits != 2 {
		t.Fatalf("hits=%d, want 2", hits)
	}
	if k.Now() != 2*Millisecond {
		t.Fatalf("final time %v, want 2ms", k.Now())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(5*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(Millisecond, func() {})
	})
	_ = k.Run()
}

func TestKernelHalt(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.At(1, func() { n++; k.Halt() })
	k.At(2, func() { n++ })
	if err := k.Run(); err != ErrHalted {
		t.Fatalf("Run err=%v, want ErrHalted", err)
	}
	if n != 1 {
		t.Fatalf("ran %d events before halt, want 1", n)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var ran []Time
	for _, d := range []Duration{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		d := d
		k.At(d, func() { ran = append(ran, d) })
	}
	if err := k.RunUntil(3 * Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2", len(ran))
	}
	if k.Now() != 3*Millisecond {
		t.Fatalf("clock at %v, want 3ms", k.Now())
	}
	// Remaining event still pending.
	if k.Pending() != 1 {
		t.Fatalf("pending=%d, want 1", k.Pending())
	}
	_ = k.Run()
	if len(ran) != 3 {
		t.Fatalf("after Run, ran %d events, want 3", len(ran))
	}
}

func TestKernelEvery(t *testing.T) {
	k := NewKernel(1)
	n := 0
	stop := k.Every(0, Millisecond, func() {
		n++
		if n == 5 {
			k.Halt()
		}
	})
	_ = k.Run()
	stop()
	if n != 5 {
		t.Fatalf("ticked %d times, want 5", n)
	}
	if k.Now() != 4*Millisecond {
		t.Fatalf("clock %v, want 4ms", k.Now())
	}
}

func TestKernelEveryStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var stop func()
	stop = k.Every(0, Millisecond, func() {
		n++
		if n == 3 {
			stop()
		}
	})
	k.At(10*Millisecond, func() {}) // keep the run going past the stop
	_ = k.Run()
	if n != 3 {
		t.Fatalf("ticked %d times after stop, want 3", n)
	}
}

func TestKernelNextEventTime(t *testing.T) {
	k := NewKernel(1)
	if k.NextEventTime() != Never {
		t.Fatal("empty kernel should report Never")
	}
	e := k.At(7*Millisecond, func() {})
	if k.NextEventTime() != 7*Millisecond {
		t.Fatalf("next=%v, want 7ms", k.NextEventTime())
	}
	k.Cancel(e)
	if k.NextEventTime() != Never {
		t.Fatal("cancelled-only queue should report Never")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Never, "never"},
		{2 * Second, "2.000000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000us"},
		{17, "17ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String()=%q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any batch of scheduled deadlines, dispatch order is
// non-decreasing in time.
func TestKernelOrderingProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		k := NewKernel(42)
		var seen []Time
		for _, d := range ds {
			k.At(Time(d), func() { seen = append(seen, k.Now()) })
		}
		_ = k.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(ds)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(99)
		s := k.Stream("noise")
		var out []uint64
		k.Every(0, Millisecond, func() {
			out = append(out, s.Uint64())
			if len(out) == 100 {
				k.Halt()
			}
		})
		_ = k.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}

// TestKernelEveryStaleStop: a stop handle is bound to the stream it was
// issued for. Calling it twice, or after Reset has recycled its
// periodic node into a new stream, must leave every other stream
// running.
func TestKernelEveryStaleStop(t *testing.T) {
	k := NewKernel(1)
	stale := k.Every(0, Millisecond, func() {})
	_ = k.RunUntil(3 * Millisecond)
	k.Reset(2)

	ticks := 0
	stop := k.Every(0, Millisecond, func() { ticks++ })
	other := 0
	k.Every(0, Millisecond, func() { other++ })
	k.At(2*Millisecond+1, stale) // the recycled node now serves the first stream
	k.At(4*Millisecond+1, stop)
	k.At(6*Millisecond+1, stop) // twice: still only the first stream
	_ = k.RunUntil(10 * Millisecond)
	if ticks != 5 || other != 11 {
		t.Fatalf("ticks=%d other=%d, want 5 (stopped after 4ms) and 11 (never stopped)", ticks, other)
	}
}

// TestKernelEveryAllocs pins Every on a warm kernel: the periodic node
// is recycled by Reset, so a call allocates at most its stop handle,
// and a running stream allocates nothing per tick.
func TestKernelEveryAllocs(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	run := func() {
		k.Reset(1)
		for i := 0; i < 4; i++ {
			k.Every(Time(i)*Microsecond, Millisecond, fn)
		}
		_ = k.RunUntil(10 * Millisecond)
	}
	run() // warm-up makes the nodes
	if allocs := testing.AllocsPerRun(100, run); allocs > 4 {
		t.Fatalf("%v allocs per 4 Every calls and 10 ms of ticks, want <= 4", allocs)
	}
}
