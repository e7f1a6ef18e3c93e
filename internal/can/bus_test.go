package can

import (
	"errors"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

func newTestBus(t *testing.T, nodes ...string) (*sim.Kernel, *Bus, []*Controller) {
	t.Helper()
	k := sim.NewKernel(1)
	b := NewBus(k, "test", 500_000)
	var cs []*Controller
	for _, n := range nodes {
		c := NewController(n)
		b.Attach(c)
		cs = append(cs, c)
	}
	return k, b, cs
}

func TestBusDeliversToAllOtherNodes(t *testing.T) {
	k, _, cs := newTestBus(t, "a", "b", "c")
	// The delivered *Frame is only valid for the duration of the callback
	// (its payload buffer is recycled after delivery), so retain a clone.
	var gotB, gotC *Frame
	cs[1].OnReceive(func(_ sim.Time, f *Frame, _ *Controller) { c := f.Clone(); gotB = &c })
	cs[2].OnReceive(func(_ sim.Time, f *Frame, _ *Controller) { c := f.Clone(); gotC = &c })
	var echoedToSender bool
	cs[0].OnReceive(func(_ sim.Time, _ *Frame, _ *Controller) { echoedToSender = true })

	want := Frame{ID: 0x123, Data: []byte{7}}
	if err := cs[0].Send(want, nil); err != nil {
		t.Fatal(err)
	}
	_ = k.Run()
	if gotB == nil || !gotB.Equal(&want) {
		t.Fatalf("node b got %v", gotB)
	}
	if gotC == nil || !gotC.Equal(&want) {
		t.Fatalf("node c got %v", gotC)
	}
	if echoedToSender {
		t.Fatal("frame echoed back to its sender")
	}
}

func TestBusArbitrationLowestIDWins(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b", "c")
	trace := netif.Recorder(Netif(b))
	// Enqueue in reverse priority order at the same instant.
	_ = cs[0].Send(Frame{ID: 0x300}, nil)
	_ = cs[1].Send(Frame{ID: 0x100}, nil)
	_ = cs[2].Send(Frame{ID: 0x200}, nil)
	_ = k.Run()
	if trace.Len() != 3 {
		t.Fatalf("trace has %d frames", trace.Len())
	}
	wantOrder := []uint32{0x100, 0x200, 0x300}
	for i, id := range wantOrder {
		if trace.Records[i].Frame.ID != id {
			t.Fatalf("frame %d has ID %#x, want %#x", i, trace.Records[i].Frame.ID, id)
		}
	}
}

func TestBusFrameTiming(t *testing.T) {
	k, _, cs := newTestBus(t, "a", "b")
	f := Frame{ID: 0x123, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	wireBits, err := WireLength(&f)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	cs[1].OnReceive(func(now sim.Time, _ *Frame, _ *Controller) { at = now })
	_ = cs[0].Send(f, nil)
	_ = k.Run()
	// 500 kbit/s → 2000 ns per bit.
	want := sim.Time(wireBits) * 2000
	if at != want {
		t.Fatalf("delivery at %v, want %v (%d bits)", at, want, wireBits)
	}
}

func TestBusLoadAccounting(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b")
	stop := PeriodicSender(k, cs[0], Frame{ID: 0x100, Data: make([]byte, 8)}, 10*sim.Millisecond, 0)
	defer stop()
	_ = k.RunUntil(sim.Second)
	load := b.Load()
	// ~130 bits * 2us = 260us every 10ms → ~2.6% load.
	if load < 0.01 || load > 0.05 {
		t.Fatalf("load=%.4f, want ~0.026", load)
	}
	if b.FramesOK.Value < 95 || b.FramesOK.Value > 105 {
		t.Fatalf("frames=%d, want ~100", b.FramesOK.Value)
	}
}

func TestBusAcceptanceFilter(t *testing.T) {
	k, _, cs := newTestBus(t, "a", "b")
	cs[1].SetFilter(MaskFilter(0x100, 0x700))
	var got []ID
	cs[1].OnReceive(func(_ sim.Time, f *Frame, _ *Controller) { got = append(got, f.ID) })
	for _, id := range []ID{0x100, 0x1FF, 0x200, 0x555} {
		_ = cs[0].Send(Frame{ID: id}, nil)
	}
	_ = k.Run()
	if len(got) != 2 || got[0] != 0x100 || got[1] != 0x1FF {
		t.Fatalf("filtered receive got %v", got)
	}
	// All four frames still crossed the wire.
	if cs[0].FramesSent.Value != 4 {
		t.Fatalf("sent=%d", cs[0].FramesSent.Value)
	}
}

func TestBusErrorCountersAndBusOff(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b")
	b.BitErrorRate = 1 // every frame is corrupted
	var delivered int
	cs[1].OnReceive(func(_ sim.Time, _ *Frame, _ *Controller) { delivered++ })
	_ = cs[0].Send(Frame{ID: 0x100}, nil)
	_ = k.RunUntil(sim.Second)

	if delivered != 0 {
		t.Fatalf("corrupted frames were delivered: %d", delivered)
	}
	if cs[0].State() != BusOff {
		t.Fatalf("sender state=%v, want bus-off (TEC=%d)", cs[0].State(), tec(cs[0]))
	}
	if cs[0].BusOffEvents.Value != 1 {
		t.Fatalf("bus-off events=%d", cs[0].BusOffEvents.Value)
	}
	// 255/8 = ~32 failed attempts to reach bus-off.
	if b.FramesErrored.Value < 30 || b.FramesErrored.Value > 35 {
		t.Fatalf("errored frames=%d", b.FramesErrored.Value)
	}
	// Receiver accumulated REC but stays operational below 128... with 32
	// errors REC=32.
	_, rec := cs[1].Counters()
	if rec < 30 || rec > 35 {
		t.Fatalf("receiver REC=%d", rec)
	}
	if cs[1].State() != ErrorActive {
		t.Fatalf("receiver state=%v", cs[1].State())
	}
}

func tec(c *Controller) int { t, _ := c.Counters(); return t }

func TestBusOffSendFailsAndResetRecovers(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b")
	b.BitErrorRate = 1
	_ = cs[0].Send(Frame{ID: 0x100}, nil)
	_ = k.RunUntil(sim.Second)
	if cs[0].State() != BusOff {
		t.Fatal("precondition: not bus-off")
	}
	if err := cs[0].Send(Frame{ID: 0x101}, nil); !errors.Is(err, ErrBusOff) {
		t.Fatalf("Send while bus-off: err=%v", err)
	}
	b.BitErrorRate = 0
	cs[0].Reset()
	if cs[0].State() != ErrorActive {
		t.Fatal("Reset did not restore error-active")
	}
	var got int
	cs[1].OnReceive(func(_ sim.Time, _ *Frame, _ *Controller) { got++ })
	if err := cs[0].Send(Frame{ID: 0x102}, nil); err != nil {
		t.Fatal(err)
	}
	_ = k.Run()
	if got != 1 {
		t.Fatalf("post-reset delivery count=%d", got)
	}
}

func TestBusErrorPassiveTransition(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b")
	b.BitErrorRate = 1
	_ = cs[0].Send(Frame{ID: 0x100}, nil)
	// Run until TEC exceeds 127 but not 255: 16 retransmissions * 8 = 128.
	for i := 0; i < 16; i++ {
		_ = k.RunUntil(k.Now() + 300*sim.Microsecond)
	}
	if cs[0].State() != ErrorPassive && cs[0].State() != BusOff {
		t.Fatalf("state=%v after sustained errors (TEC=%d)", cs[0].State(), tec(cs[0]))
	}
}

func TestQueueFull(t *testing.T) {
	_, _, cs := newTestBus(t, "a", "b")
	cs[0].MaxQueue = 2
	if err := cs[0].Send(Frame{ID: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// First frame may already be "on the wire"; queue the rest without
	// running the kernel so they pile up.
	_ = cs[0].Send(Frame{ID: 2}, nil)
	var errFull error
	for i := 0; i < 5; i++ {
		if err := cs[0].Send(Frame{ID: 3}, nil); err != nil {
			errFull = err
			break
		}
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", errFull)
	}
	if cs[0].FramesDropped.Value == 0 {
		t.Fatal("dropped counter not incremented")
	}
}

func TestSendValidates(t *testing.T) {
	_, _, cs := newTestBus(t, "a", "b")
	if err := cs[0].Send(Frame{ID: 0x800}, nil); !errors.Is(err, ErrIDRange) {
		t.Fatalf("err=%v", err)
	}
	detached := NewController("x")
	if err := detached.Send(Frame{ID: 1}, nil); err == nil {
		t.Fatal("detached controller Send succeeded")
	}
}

func TestDoneCallback(t *testing.T) {
	k, _, cs := newTestBus(t, "a", "b")
	var doneAt sim.Time = -1
	_ = cs[0].Send(Frame{ID: 0x10}, func(at sim.Time) { doneAt = at })
	_ = k.Run()
	if doneAt <= 0 {
		t.Fatalf("done callback at %v", doneAt)
	}
}

func TestHigherPriorityPreemptsQueueNotWire(t *testing.T) {
	// A frame already on the wire finishes even if a lower-ID frame
	// arrives mid-transmission; the new frame wins the next round.
	k, b, cs := newTestBus(t, "a", "b")
	trace := netif.Recorder(Netif(b))
	_ = cs[0].Send(Frame{ID: 0x400, Data: make([]byte, 8)}, nil)
	k.After(10*sim.Microsecond, func() {
		_ = cs[1].Send(Frame{ID: 0x001}, nil)
	})
	// Node a also queues a second low-priority frame at t=0.
	_ = cs[0].Send(Frame{ID: 0x500}, nil)
	_ = k.Run()
	wantOrder := []uint32{0x400, 0x001, 0x500}
	if trace.Len() != 3 {
		t.Fatalf("trace len=%d", trace.Len())
	}
	for i, id := range wantOrder {
		if trace.Records[i].Frame.ID != id {
			t.Fatalf("order[%d]=%#x, want %#x", i, trace.Records[i].Frame.ID, id)
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	k, b, cs := newTestBus(t, "a", "b")
	trace := netif.Recorder(Netif(b))
	stop := PeriodicSender(k, cs[0], Frame{ID: 0x111}, 10*sim.Millisecond, 0)
	_ = k.RunUntil(100 * sim.Millisecond)
	stop()
	key := netif.MakeKey(netif.CAN, 0x111)
	keys := trace.Keys()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys=%v", keys)
	}
	ivs := trace.Intervals(key)
	if len(ivs) < 8 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	for _, iv := range ivs {
		if iv != 10*sim.Millisecond {
			t.Fatalf("interval %v, want 10ms", iv)
		}
	}
}

func TestFDFrameOnBusUsesDataBitrate(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus(k, "fd", 500_000)
	b.SetDataBitrate(2_000_000)
	a, c := NewController("a"), NewController("b")
	b.Attach(a)
	b.Attach(c)
	var atBRS sim.Time
	c.OnReceive(func(now sim.Time, _ *Frame, _ *Controller) { atBRS = now })
	payload := make([]byte, 64)
	_ = a.Send(Frame{ID: 0x50, FD: true, BRS: true, Data: payload}, nil)
	_ = k.Run()

	k2 := sim.NewKernel(1)
	b2 := NewBus(k2, "fd2", 500_000)
	b2.SetDataBitrate(500_000) // no speedup
	a2, c2 := NewController("a"), NewController("b")
	b2.Attach(a2)
	b2.Attach(c2)
	var atSlow sim.Time
	c2.OnReceive(func(now sim.Time, _ *Frame, _ *Controller) { atSlow = now })
	_ = a2.Send(Frame{ID: 0x50, FD: true, BRS: true, Data: payload}, nil)
	_ = k2.Run()

	if atBRS >= atSlow {
		t.Fatalf("BRS at 4x rate not faster: %v vs %v", atBRS, atSlow)
	}
}
