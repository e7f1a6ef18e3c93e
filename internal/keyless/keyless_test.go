package keyless

import (
	"errors"
	"testing"

	"autosec/internal/sim"
)

func sharedKey() [16]byte {
	return [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
}

func TestDirectUnlockInRange(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{1, 0}
	rtt, err := car.TryUnlock(fob)
	if err != nil {
		t.Fatal(err)
	}
	if car.Unlocks.Value != 1 {
		t.Fatalf("unlocks=%d", car.Unlocks.Value)
	}
	// RTT = 2*1m*3.336ns + 2ms ≈ 2ms.
	if rtt < 2*sim.Millisecond || rtt > 2*sim.Millisecond+sim.Microsecond {
		t.Fatalf("rtt=%v", rtt)
	}
}

func TestDirectUnlockOutOfRange(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{10, 0} // beyond 2m LF range
	if _, err := car.TryUnlock(fob); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err=%v", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	car := NewCar(sharedKey())
	other := sharedKey()
	other[0] ^= 1
	fob := NewFob(other)
	fob.Pos = Position{1, 0}
	if _, err := car.TryUnlock(fob); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("err=%v", err)
	}
	if car.Rejections.Value != 1 {
		t.Fatalf("rejections=%d", car.Rejections.Value)
	}
}

func TestDisabledFobSilent(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{1, 0}
	fob.Disabled = true
	if _, err := car.TryUnlock(fob); !errors.Is(err, ErrNoResponse) {
		t.Fatalf("err=%v", err)
	}
}

func TestRelayAttackSucceedsWithoutBounding(t *testing.T) {
	// The headline result of [8]: fob 60m away (in the house), relay
	// antennas at the car and the front door, no distance bounding —
	// the car unlocks.
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{60, 0}
	relay := &Relay{
		PosA:    Position{1, 0},    // by the car
		PosB:    Position{59.5, 0}, // by the door
		Latency: 10 * sim.Microsecond,
	}
	if _, err := car.TryRelayUnlock(relay, fob); err != nil {
		t.Fatalf("relay attack failed without bounding: %v", err)
	}
	if car.Unlocks.Value != 1 {
		t.Fatal("no unlock recorded")
	}
}

func TestRelayAttackDefeatedByDistanceBounding(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	car.DistanceBounding = true
	// A tight RTT budget: fob processing + small flight + guard.
	car.RTTBudget = 2*sim.Millisecond + 100*sim.Nanosecond
	fob := NewFob(key)
	fob.Pos = Position{60, 0}
	relay := &Relay{PosA: Position{1, 0}, PosB: Position{59.5, 0}, Latency: 10 * sim.Microsecond}
	if _, err := car.TryRelayUnlock(relay, fob); !errors.Is(err, ErrRTTExceeded) {
		t.Fatalf("relay attack beat bounding: %v", err)
	}
	if car.Unlocks.Value != 0 {
		t.Fatal("car unlocked")
	}

	// The legitimate fob still works under the same budget.
	fob.Pos = Position{1, 0}
	if _, err := car.TryUnlock(fob); err != nil {
		t.Fatalf("legitimate unlock failed under bounding: %v", err)
	}
}

func TestBoundingDefaultBudgetAllowsLegitimate(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	car.DistanceBounding = true // RTTBudget 0 -> default
	fob := NewFob(key)
	fob.Pos = Position{1.9, 0}
	if _, err := car.TryUnlock(fob); err != nil {
		t.Fatalf("legit unlock under default budget: %v", err)
	}
	if car.BoundingTrips.Value != 1 {
		t.Fatalf("bounding trips=%d", car.BoundingTrips.Value)
	}
}

func TestZeroLatencyRelayStillAddsFlightTime(t *testing.T) {
	// Even a perfect (zero-latency) relay cannot hide the extra path: the
	// fob is 1km away, adding ~6.7us of flight, detectable with a tight
	// bound.
	key := sharedKey()
	car := NewCar(key)
	car.DistanceBounding = true
	car.RTTBudget = 2*sim.Millisecond + 500*sim.Nanosecond
	fob := NewFob(key)
	fob.Pos = Position{1000, 0}
	relay := &Relay{PosA: Position{0.5, 0}, PosB: Position{999.5, 0}, Latency: 0}
	if _, err := car.TryRelayUnlock(relay, fob); !errors.Is(err, ErrRTTExceeded) {
		t.Fatalf("speed-of-light relay evaded bounding: %v", err)
	}
}

func TestRelayNeedsBothAntennasInPlace(t *testing.T) {
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{60, 0}
	// Antenna A too far from the car.
	r := &Relay{PosA: Position{10, 0}, PosB: Position{59.5, 0}}
	if _, err := car.TryRelayUnlock(r, fob); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err=%v", err)
	}
	// Antenna B too far from the fob.
	r = &Relay{PosA: Position{1, 0}, PosB: Position{50, 0}}
	if _, err := car.TryRelayUnlock(r, fob); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err=%v", err)
	}
}

func TestResponseReplayRejected(t *testing.T) {
	// Each challenge is unique, so a recorded response never verifies
	// against a later challenge; and re-submitting the same response for
	// its own challenge is caught by single-use tracking. We simulate the
	// latter via two unlocks and checking distinct challenges were used.
	key := sharedKey()
	car := NewCar(key)
	fob := NewFob(key)
	fob.Pos = Position{1, 0}
	if _, err := car.TryUnlock(fob); err != nil {
		t.Fatal(err)
	}
	if _, err := car.TryUnlock(fob); err != nil {
		t.Fatalf("second unlock with fresh challenge: %v", err)
	}
	if car.Unlocks.Value != 2 {
		t.Fatalf("unlocks=%d", car.Unlocks.Value)
	}
}

func TestPositionDist(t *testing.T) {
	if d := (Position{0, 0}).Dist(Position{3, 4}); d != 5 {
		t.Fatalf("dist=%v", d)
	}
}
