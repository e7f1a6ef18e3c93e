package lin

import (
	"fmt"
	"testing"

	"autosec/internal/sim"
)

// TestClusterPayloadOwnership: the cluster copies a response onto the
// wire when it is sent, so a publisher or sporadic sender may overwrite
// its buffer at once; and it reuses the wire buffer after delivery, so a
// subscriber keeps only what it copied.
func TestClusterPayloadOwnership(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	buf := []byte{0}
	if err := pub.Publish(0x10, func(sim.Time) []byte { buf[0]++; return buf }); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	sub.Subscribe(0x10, keep(&got))
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	sporadic := []byte{0xA0}
	k.At(15*sim.Millisecond, func() {
		if err := c.SendSporadic("master", 0x10, sporadic); err != nil {
			t.Error(err)
		}
		sporadic[0] = 0xFF
	})
	_ = k.RunUntil(45 * sim.Millisecond)
	c.Stop()
	var data []byte
	for _, f := range got {
		data = append(data, f.Data...)
	}
	if want := []byte{1, 2, 0xA0, 3, 4, 5}; fmt.Sprint(data) != fmt.Sprint(want) {
		t.Fatalf("subscriber kept %v, want %v", data, want)
	}
	if len(c.transfers) > 2 {
		t.Fatalf("%d transfer nodes for one frame at a time (and one sporadic), want <= 2", len(c.transfers))
	}
}

// TestClusterSteadyStateAllocs pins a warm schedule at zero allocations
// per slot: the schedule step and the transfer are pooled nodes whose
// callbacks were bound when they were made, and the wire buffer is the
// node's own.
func TestClusterSteadyStateAllocs(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	resp := []byte{1, 2, 3, 4}
	_ = pub.Publish(0x10, func(sim.Time) []byte { return resp })
	_ = pub.Publish(0x11, func(sim.Time) []byte { return resp[:2] })
	delivered := 0
	sub.Subscribe(0x10, func(sim.Time, Frame) { delivered++ })
	c.Observe(func(sim.Time, Frame) {})
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 5 * sim.Millisecond}, {ID: 0x11, Delay: 5 * sim.Millisecond}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	until := sim.Time(20 * sim.Millisecond)
	_ = k.RunUntil(until) // warm-up makes the nodes
	if allocs := testing.AllocsPerRun(100, func() {
		until += 10 * sim.Millisecond
		_ = k.RunUntil(until)
	}); allocs != 0 {
		t.Fatalf("%v allocs per schedule round, want 0", allocs)
	}
	if delivered < 100 {
		t.Fatalf("delivered %d frames, want >= 100", delivered)
	}
}

// TestClusterResetInFlight resets a cluster while a schedule slot and a
// transfer are pending. Their nodes must return to the pool, so the
// next run makes none, and the reset cluster must deliver exactly what
// a fresh one does.
func TestClusterResetInFlight(t *testing.T) {
	run := func(k *sim.Kernel, c *Cluster, sub *Slave) string {
		var got []Frame
		sub.Subscribe(0x10, keep(&got))
		c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
		_ = c.Start()
		_ = k.RunUntil(31 * sim.Millisecond) // a transfer and a slot pending
		return fmt.Sprint(got)
	}
	setup := func() (*sim.Kernel, *Cluster, *Slave) {
		k, c, pub, sub := newCluster(t)
		_ = pub.Publish(0x10, func(at sim.Time) []byte { return []byte{byte(at / sim.Millisecond), 0x42} })
		c.MarkBaseline()
		return k, c, sub
	}
	k, c, sub := setup()
	first := run(k, c, sub)
	steps, transfers := len(c.steps), len(c.transfers)
	k.Reset(1)
	c.ResetToBaseline()
	if again := run(k, c, sub); again != first {
		t.Fatalf("reset cluster delivered %s, fresh delivered %s", again, first)
	}
	if len(c.steps) != steps || len(c.transfers) != transfers {
		t.Fatalf("reset run made nodes: %d steps and %d transfers, want %d and %d",
			len(c.steps), len(c.transfers), steps, transfers)
	}
}
