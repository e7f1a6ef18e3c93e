package sim

import "testing"

type recordingSink struct {
	at      []Time
	pending []int
}

func (r *recordingSink) KernelDispatch(at Time, pending int) {
	r.at = append(r.at, at)
	r.pending = append(r.pending, pending)
}

func TestKernelTraceSinkSeesEveryDispatch(t *testing.T) {
	k := NewKernel(1)
	sink := &recordingSink{}
	k.SetTraceSink(sink)

	var order []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	cancelled := k.At(15, func() { t.Error("cancelled event ran") })
	k.Cancel(cancelled)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	if len(sink.at) != 3 {
		t.Fatalf("sink saw %d dispatches, want 3 (cancelled event must not appear)", len(sink.at))
	}
	for i, want := range []Time{10, 20, 30} {
		if sink.at[i] != want {
			t.Fatalf("dispatch %d at %v, want %v", i, sink.at[i], want)
		}
	}
	// Pending counts down as the queue drains: 2, 1, 0.
	for i, want := range []int{2, 1, 0} {
		if sink.pending[i] != want {
			t.Fatalf("dispatch %d pending=%d, want %d", i, sink.pending[i], want)
		}
	}

	// Reset detaches the sink.
	k.Reset(2)
	k.At(5, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.at) != 3 {
		t.Fatalf("sink saw %d dispatches after Reset, want the first run's 3", len(sink.at))
	}
}
