package flexray

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func TestConfigCycleLength(t *testing.T) {
	cfg := DefaultConfig()
	// 60*50 + 200*5 + 1000 = 5000 macroticks of 1us = 5ms.
	if got := cfg.CycleLength(); got != 5*sim.Millisecond {
		t.Fatalf("cycle length %v, want 5ms", got)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.StaticSlots = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero static slots accepted")
	}
}

func TestHeaderCRCDistinguishesSlots(t *testing.T) {
	a := HeaderCRC(1, 4)
	b := HeaderCRC(2, 4)
	if a == b {
		t.Fatal("header CRC identical for different slots")
	}
	if a != HeaderCRC(1, 4) {
		t.Fatal("header CRC not deterministic")
	}
	if a>>11 != 0 {
		t.Fatalf("header CRC %#x wider than 11 bits", a)
	}
}

func TestFrameCRC24DetectsFlipsProperty(t *testing.T) {
	f := func(payload []byte, idx, bit uint8) bool {
		if len(payload) == 0 {
			return true
		}
		orig := FrameCRC24(payload)
		if orig>>24 != 0 {
			return false
		}
		mut := append([]byte(nil), payload...)
		mut[int(idx)%len(mut)] ^= 1 << (bit % 8)
		return FrameCRC24(mut) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func newCluster(t *testing.T) (*sim.Kernel, *Cluster) {
	t.Helper()
	k := sim.NewKernel(1)
	c, err := NewCluster(k, "chassis", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

func TestStaticSlotDelivery(t *testing.T) {
	k, c := newCluster(t)
	err := c.AssignStatic(3, "brake-ecu", func(cycle int) []byte {
		return []byte{byte(cycle), 0xAA}
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []Frame
	c.OnReceive(func(_ sim.Time, f Frame) {
		if !f.NullFrame {
			got = append(got, f)
		}
	})
	_ = c.Start()
	_ = k.RunUntil(3 * c.Config().CycleLength())
	c.Stop()
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3", len(got))
	}
	for i, f := range got {
		if f.Slot != 3 || f.Cycle != i || f.Sender != "brake-ecu" {
			t.Fatalf("frame %d: %+v", i, f)
		}
		if f.Payload[0] != byte(i) {
			t.Fatalf("cycle counter payload mismatch: %+v", f)
		}
	}
}

func TestStaticSlotTiming(t *testing.T) {
	k, c := newCluster(t)
	_ = c.AssignStatic(1, "a", func(int) []byte { return []byte{1, 1} })
	_ = c.AssignStatic(10, "b", func(int) []byte { return []byte{2, 2} })
	var times []sim.Time
	c.OnReceive(func(at sim.Time, f Frame) { times = append(times, at) })
	_ = c.Start()
	_ = k.RunUntil(c.Config().CycleLength() - 1)
	c.Stop()
	if len(times) != 2 {
		t.Fatalf("got %d frames", len(times))
	}
	// Slot 1 fires at 0, slot 10 at 9 * 50us = 450us.
	if times[0] != 0 || times[1] != 450*sim.Microsecond {
		t.Fatalf("slot times %v", times)
	}
}

func TestSlotOwnershipExclusive(t *testing.T) {
	_, c := newCluster(t)
	_ = c.AssignStatic(5, "a", func(int) []byte { return nil })
	if err := c.AssignStatic(5, "b", func(int) []byte { return nil }); !errors.Is(err, ErrSlotOwned) {
		t.Fatalf("err=%v", err)
	}
	if err := c.AssignStatic(0, "c", func(int) []byte { return nil }); !errors.Is(err, ErrSlotRange) {
		t.Fatalf("err=%v", err)
	}
	if err := c.AssignStatic(SlotID(c.Config().StaticSlots+1), "c", func(int) []byte { return nil }); !errors.Is(err, ErrSlotRange) {
		t.Fatalf("err=%v", err)
	}
}

func TestNullFrames(t *testing.T) {
	k, c := newCluster(t)
	_ = c.AssignStatic(2, "idle-ecu", func(int) []byte { return nil })
	nulls := 0
	c.OnReceive(func(_ sim.Time, f Frame) {
		if f.NullFrame {
			nulls++
		}
	})
	_ = c.Start()
	_ = k.RunUntil(2 * c.Config().CycleLength())
	c.Stop()
	if nulls != 2 || c.NullFrames.Value != 2 {
		t.Fatalf("nulls=%d counter=%d", nulls, c.NullFrames.Value)
	}
}

func TestIntrusionCausesCollision(t *testing.T) {
	k, c := newCluster(t)
	_ = c.AssignStatic(7, "victim", func(int) []byte { return []byte{1, 2} })
	_ = c.Intrude(7, "attacker", func(int) []byte { return []byte{0xBA, 0xD0} })
	delivered := 0
	c.OnReceive(func(_ sim.Time, f Frame) {
		if !f.NullFrame {
			delivered++
		}
	})
	_ = c.Start()
	_ = k.RunUntil(5 * c.Config().CycleLength())
	c.Stop()
	if delivered != 0 {
		t.Fatalf("%d frames delivered despite collisions", delivered)
	}
	if c.Collisions.Value != 5 {
		t.Fatalf("collisions=%d, want 5", c.Collisions.Value)
	}
}

func TestIntruderAloneInEmptySlot(t *testing.T) {
	// An intruder transmitting in an unowned slot gets through — slot
	// ownership is configuration, not enforcement.
	k, c := newCluster(t)
	_ = c.Intrude(9, "attacker", func(int) []byte { return []byte{0xBA, 0xD0} })
	var got []Frame
	c.OnReceive(func(_ sim.Time, f Frame) { got = append(got, f) })
	_ = c.Start()
	_ = k.RunUntil(c.Config().CycleLength())
	c.Stop()
	if len(got) != 1 || got[0].Sender != "attacker" {
		t.Fatalf("got %+v", got)
	}
}

func TestDynamicSegmentPriorityAndStarvation(t *testing.T) {
	k, c := newCluster(t)
	// Fill most of the 200 minislots with a high-priority burst, then a
	// low-priority frame that must starve.
	big := make([]byte, 254) // needs 131 minislots
	_ = c.SendDynamic(2, "hi", big)
	mid := make([]byte, 120) // needs 64 -> total 195
	_ = c.SendDynamic(3, "mid", mid)
	_ = c.SendDynamic(4, "lo", make([]byte, 20)) // needs 14 > 5 left -> starved
	var got []Frame
	c.OnReceive(func(_ sim.Time, f Frame) { got = append(got, f) })
	_ = c.Start()
	_ = k.RunUntil(c.Config().CycleLength())
	c.Stop()
	if len(got) != 2 {
		t.Fatalf("dynamic frames delivered: %d", len(got))
	}
	if got[0].Sender != "hi" || got[1].Sender != "mid" {
		t.Fatalf("priority order wrong: %v, %v", got[0].Sender, got[1].Sender)
	}
	if c.DynStarved.Value != 1 {
		t.Fatalf("starved=%d", c.DynStarved.Value)
	}
}

func TestDynamicPayloadValidation(t *testing.T) {
	_, c := newCluster(t)
	if err := c.SendDynamic(1, "x", make([]byte, 3)); !errors.Is(err, ErrPayloadRange) {
		t.Fatalf("odd payload: err=%v", err)
	}
	if err := c.SendDynamic(1, "x", make([]byte, 256)); !errors.Is(err, ErrPayloadRange) {
		t.Fatalf("oversize payload: err=%v", err)
	}
}

func TestCycleCounterAdvances(t *testing.T) {
	k, c := newCluster(t)
	_ = c.Start()
	_ = k.RunUntil(10 * c.Config().CycleLength())
	c.Stop()
	if c.Cycle() != 10 {
		t.Fatalf("cycle=%d, want 10", c.Cycle())
	}
}

func TestDoubleStart(t *testing.T) {
	_, c := newCluster(t)
	_ = c.Start()
	if err := c.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

// TestClusterCycleSteadyStateAllocs pins a FlexRay cycle at zero
// allocations once the kernel's node pool is warm: the static-slot and
// next-cycle callbacks are bound when the cluster is built, so a cycle
// only reuses them. CI gates on this test.
func TestClusterCycleSteadyStateAllocs(t *testing.T) {
	k, c := newCluster(t)
	for i, p := range [][]byte{{1, 2}, {3, 4, 5, 6}, {7, 8}} {
		if err := c.AssignStatic(SlotID(1+20*i), "ecu", func(int) []byte { return p }); err != nil {
			t.Fatal(err)
		}
	}
	frames := 0
	c.OnReceive(func(sim.Time, Frame) { frames++ })
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	cycle := c.Config().CycleLength()
	end := 2 * cycle
	_ = k.RunUntil(end)
	if allocs := testing.AllocsPerRun(10, func() {
		end += cycle
		_ = k.RunUntil(end)
	}); allocs != 0 {
		t.Fatalf("one FlexRay cycle allocates %.1f objects, want 0", allocs)
	}
	// Every completed cycle delivered its 3 frames; slot 1 of the cycle
	// starting at end has fired too.
	if want := 3*c.Cycle() + 1; frames != want {
		t.Fatalf("frames=%d after %d cycles, want %d", frames, c.Cycle(), want)
	}
}

// TestClusterResetToBaseline: slot ownership and intruders registered
// before MarkBaseline survive ResetToBaseline; later ones are gone, so the
// freed slot can be assigned again, and the cycle counter rewinds.
func TestClusterResetToBaseline(t *testing.T) {
	k, c := newCluster(t)
	pub := func(b byte) PublishFunc { return func(int) []byte { return []byte{b, b} } }
	var senders []string
	c.OnReceive(func(_ sim.Time, f Frame) { senders = append(senders, f.Sender) })
	_ = c.AssignStatic(2, "owner", pub(2))
	_ = c.Intrude(4, "base-rogue", pub(4))
	c.MarkBaseline()

	_ = c.AssignStatic(3, "scenario", pub(3))
	_ = c.Intrude(2, "rogue", pub(0x22)) // collides with the owner
	_ = c.Intrude(4, "rogue", pub(0x44)) // collides with base-rogue
	_ = c.Start()
	_ = k.RunUntil(c.Config().CycleLength())
	if got := fmt.Sprint(senders); got != "[scenario]" || c.Collisions.Value != 2 || c.Cycle() != 1 {
		t.Fatalf("before reset: senders %s, collisions %d, cycle %d", got, c.Collisions.Value, c.Cycle())
	}

	k.Reset(1)
	c.ResetToBaseline()
	if c.Cycle() != 0 {
		t.Fatalf("cycle %d after reset, want 0", c.Cycle())
	}
	if err := c.AssignStatic(3, "again", pub(3)); err != nil {
		t.Fatalf("slot freed by the reset: %v", err)
	}
	senders = senders[:0]
	_ = c.Start()
	_ = k.RunUntil(c.Config().CycleLength() - 1)
	if got := fmt.Sprint(senders); got != "[owner again base-rogue]" || c.Collisions.Value != 0 {
		t.Fatalf("after reset: senders %s, collisions %d", got, c.Collisions.Value)
	}
}
