package lin

import (
	"errors"
	"testing"

	"autosec/internal/sim"
)

func TestIntruderInjectsOnUnownedID(t *testing.T) {
	k, c, _, sub := newCluster(t)
	// Nobody owns 0x22; the intruder answers the master's poll and every
	// subscriber trusts it — LIN has nothing to object with.
	if err := c.Intrude(0x22, func(sim.Time) []byte { return []byte{0xBA, 0xD0} }); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	sub.Subscribe(0x22, keep(&got))
	c.SetSchedule([]ScheduleEntry{{ID: 0x22, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(50 * sim.Millisecond)
	c.Stop()
	if len(got) == 0 || got[0].Data[0] != 0xBA {
		t.Fatalf("injected frames: %v", got)
	}
}

func TestIntruderCollidesWithOwner(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	_ = pub.Publish(0x10, func(sim.Time) []byte { return []byte{0x01} })
	_ = c.Intrude(0x10, func(sim.Time) []byte { return []byte{0xFF} })
	delivered := 0
	sub.Subscribe(0x10, func(sim.Time, Frame) { delivered++ })
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(100 * sim.Millisecond)
	c.Stop()
	if delivered != 0 {
		t.Fatalf("%d frames survived the collision", delivered)
	}
	if c.ResponseCollisions.Value < 9 {
		t.Fatalf("collisions=%d", c.ResponseCollisions.Value)
	}
}

func TestIntruderTakesOverSilentOwner(t *testing.T) {
	// The owner exists but returns nil (sensor fault); the intruder's
	// response fills the vacuum — the masquerade variant.
	k, c, pub, sub := newCluster(t)
	_ = pub.Publish(0x11, func(sim.Time) []byte { return nil })
	_ = c.Intrude(0x11, func(sim.Time) []byte { return []byte{0x66} })
	var got []Frame
	sub.Subscribe(0x11, keep(&got))
	c.SetSchedule([]ScheduleEntry{{ID: 0x11, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(30 * sim.Millisecond)
	c.Stop()
	if len(got) == 0 || got[0].Data[0] != 0x66 {
		t.Fatalf("masquerade frames: %v", got)
	}
}

func TestIntrudeValidatesID(t *testing.T) {
	_, c, _, _ := newCluster(t)
	if err := c.Intrude(0x40, nil); !errors.Is(err, ErrIDRange) {
		t.Fatalf("err=%v", err)
	}
}
