package lin

import (
	"errors"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func TestPIDKnownValues(t *testing.T) {
	// Known LIN PID values (ID -> PID) from the LIN 2.1 specification
	// parity definition.
	cases := map[FrameID]byte{
		0x00: 0x80,
		0x01: 0xC1,
		0x02: 0x42,
		0x03: 0x03,
		0x3C: 0x3C, // master request diagnostic frame
		0x3D: 0x7D, // slave response diagnostic frame
	}
	for id, want := range cases {
		got, err := PID(id)
		if err != nil {
			t.Fatalf("PID(%#x): %v", id, err)
		}
		if got != want {
			t.Errorf("PID(%#x)=%#x, want %#x", id, got, want)
		}
	}
}

func TestPIDRange(t *testing.T) {
	if _, err := PID(0x40); !errors.Is(err, ErrIDRange) {
		t.Fatalf("err=%v", err)
	}
}

// Property: CheckPID inverts PID for all valid IDs, and detects any
// single-bit corruption of the PID byte.
func TestPIDRoundTripAndParityProperty(t *testing.T) {
	for id := FrameID(0); id <= MaxFrameID; id++ {
		pid, err := PID(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CheckPID(pid)
		if err != nil || got != id {
			t.Fatalf("CheckPID(PID(%#x)) = %#x, %v", id, got, err)
		}
		for bit := uint(0); bit < 8; bit++ {
			bad := pid ^ 1<<bit
			if _, err := CheckPID(bad); err == nil {
				// Single bit flips in the ID bits change the ID, so the
				// parity must no longer match.
				t.Fatalf("ID %#x: flip of PID bit %d undetected", id, bit)
			}
		}
	}
}

func TestChecksumClassicVsEnhanced(t *testing.T) {
	pid, _ := PID(0x10)
	data := []byte{0x01, 0x02}
	classic := Checksum(Classic, pid, data)
	enhanced := Checksum(Enhanced, pid, data)
	if classic == enhanced {
		t.Fatal("classic and enhanced checksums should differ when PID != 0")
	}
	// Classic checksum of {0x01,0x02} = ^(3) = 0xFC.
	if classic != 0xFC {
		t.Fatalf("classic=%#x, want 0xFC", classic)
	}
}

func TestChecksumCarryWrap(t *testing.T) {
	// 0xFF + 0xFF = 0x1FE -> carry add -> 0xFF; inverted -> 0x00.
	got := Checksum(Classic, 0, []byte{0xFF, 0xFF})
	if got != 0x00 {
		t.Fatalf("carry checksum=%#x, want 0x00", got)
	}
}

// Property: any single bit flip in the data is detected by the checksum.
func TestChecksumDetectsBitFlipsProperty(t *testing.T) {
	f := func(data []byte, idx, bit uint8) bool {
		if len(data) == 0 || len(data) > 8 {
			return true
		}
		pid, _ := PID(0x20)
		cs := Checksum(Enhanced, pid, data)
		mut := append([]byte(nil), data...)
		mut[int(idx)%len(mut)] ^= 1 << (bit % 8)
		return !VerifyChecksum(Enhanced, pid, mut, cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// keep returns a subscriber that appends every frame to got. Frame data
// is valid only during the callback, so it keeps a copy.
func keep(got *[]Frame) SubscribeFunc {
	return func(_ sim.Time, f Frame) {
		f.Data = append([]byte(nil), f.Data...)
		*got = append(*got, f)
	}
}

func newCluster(t *testing.T) (*sim.Kernel, *Cluster, *Slave, *Slave) {
	t.Helper()
	k := sim.NewKernel(1)
	c := NewCluster(k, "body", 19200, Enhanced)
	pub := NewSlave("window-switch")
	sub := NewSlave("window-motor")
	c.AddSlave(pub)
	c.AddSlave(sub)
	return k, c, pub, sub
}

func TestClusterPollDelivery(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	if err := pub.Publish(0x10, func(sim.Time) []byte { return []byte{0x42} }); err != nil {
		t.Fatal(err)
	}
	var got []Frame
	sub.Subscribe(0x10, keep(&got))
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	_ = k.RunUntil(95 * sim.Millisecond)
	c.Stop()
	if len(got) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(got))
	}
	for _, f := range got {
		if f.ID != 0x10 || len(f.Data) != 1 || f.Data[0] != 0x42 {
			t.Fatalf("bad frame %+v", f)
		}
	}
	if c.FramesOK.Value != 10 {
		t.Fatalf("FramesOK=%d", c.FramesOK.Value)
	}
}

func TestClusterNoPublisher(t *testing.T) {
	k, c, _, _ := newCluster(t)
	c.SetSchedule([]ScheduleEntry{{ID: 0x2A, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(25 * sim.Millisecond)
	c.Stop()
	if c.NoResponse.Value != 3 {
		t.Fatalf("NoResponse=%d, want 3", c.NoResponse.Value)
	}
}

func TestClusterNilResponse(t *testing.T) {
	k, c, pub, _ := newCluster(t)
	_ = pub.Publish(0x11, func(sim.Time) []byte { return nil })
	c.SetSchedule([]ScheduleEntry{{ID: 0x11, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(5 * sim.Millisecond)
	c.Stop()
	if c.NoResponse.Value == 0 {
		t.Fatal("nil response not counted")
	}
}

func TestClusterCorruptionCaughtByChecksum(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	c.CorruptResponse = 1 // corrupt every response
	_ = pub.Publish(0x10, func(sim.Time) []byte { return []byte{1, 2, 3, 4} })
	delivered := 0
	sub.Subscribe(0x10, func(sim.Time, Frame) { delivered++ })
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(sim.Second)
	c.Stop()
	if delivered != 0 {
		t.Fatalf("%d corrupted frames delivered", delivered)
	}
	if c.ChecksumErrors.Value < 90 {
		t.Fatalf("ChecksumErrors=%d", c.ChecksumErrors.Value)
	}
}

func TestClusterObserver(t *testing.T) {
	k, c, pub, _ := newCluster(t)
	_ = pub.Publish(0x05, func(sim.Time) []byte { return []byte{9} })
	seen := 0
	c.Observe(func(sim.Time, Frame) { seen++ })
	c.SetSchedule([]ScheduleEntry{{ID: 0x05, Delay: 20 * sim.Millisecond}})
	_ = c.Start()
	_ = k.RunUntil(100 * sim.Millisecond)
	c.Stop()
	if seen < 4 {
		t.Fatalf("observer saw %d frames", seen)
	}
}

func TestDuplicatePublisherRejected(t *testing.T) {
	_, _, pub, _ := newCluster(t)
	_ = pub.Publish(0x10, func(sim.Time) []byte { return []byte{1} })
	if err := pub.Publish(0x10, func(sim.Time) []byte { return []byte{2} }); !errors.Is(err, ErrDupPublisher) {
		t.Fatalf("err=%v", err)
	}
}

func TestStartErrors(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, "x", 19200, Classic)
	if err := c.Start(); err == nil {
		t.Fatal("Start with empty schedule succeeded")
	}
	c.SetSchedule([]ScheduleEntry{{ID: 1, Delay: sim.Millisecond}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
}

// TestClusterRestartWithinSlot stops and restarts the master halfway
// through a slot. The slot pending from before the stop must not resume
// its schedule beside the new one: one chain polls once per 10 ms slot.
func TestClusterRestartWithinSlot(t *testing.T) {
	k, c, pub, sub := newCluster(t)
	_ = pub.Publish(0x10, func(sim.Time) []byte { return []byte{0x42} })
	var got []Frame
	sub.Subscribe(0x10, keep(&got))
	c.SetSchedule([]ScheduleEntry{{ID: 0x10, Delay: 10 * sim.Millisecond}})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	k.At(5*sim.Millisecond, func() {
		c.Stop()
		if err := c.Start(); err != nil {
			t.Error(err)
		}
	})
	_ = k.RunUntil(95 * sim.Millisecond)
	if len(got) != 10 {
		t.Fatalf("delivered %d frames, want 10 (one at 0 ms, then one per slot from the restart at 5 ms)", len(got))
	}
}

func TestFrameTimeScalesWithLength(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, "x", 19200, Classic)
	if c.FrameTime(8) <= c.FrameTime(1) {
		t.Fatal("8-byte frame not longer than 1-byte frame")
	}
	// 1-byte frame: 34+20=54 bits * 1.1 at 19200 -> ~3.1ms.
	ft := c.FrameTime(1)
	if ft < 2*sim.Millisecond || ft > 4*sim.Millisecond {
		t.Fatalf("FrameTime(1)=%v", ft)
	}
}
