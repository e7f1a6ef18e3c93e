// Package keyless models the paper's "+1" layer — physical access
// security: a passive keyless entry and start (PKES) system, the relay
// attack of Francillon et al. [8 in the paper] that defeats naive PKES,
// and the round-trip-time distance-bounding countermeasure.
//
// Radio timing uses free-space propagation (≈3.34 ns/m); a relay attack
// cannot beat physics, so every relayed exchange arrives late by the
// relay's processing latency plus the extra path length — which is
// exactly what distance bounding measures.
package keyless

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"autosec/internal/obs"
	"autosec/internal/she"
	"autosec/internal/sim"
)

// PropagationPerM is the free-space signal propagation delay.
const PropagationPerM = 3.336 // ns per metre

// Position is a point on the plane in metres.
type Position struct{ X, Y float64 }

// Dist is the Euclidean distance in metres.
func (p Position) Dist(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Fob is the key-side device: a shared-key transponder.
type Fob struct {
	Pos Position
	// ProcessingTime is the fob's crypto turnaround time.
	ProcessingTime sim.Duration
	key            [16]byte
	// Disabled models a fob in a shielding pouch ("Faraday cage" user
	// countermeasure): it hears nothing.
	Disabled bool
}

// NewFob creates a fob with the shared key and a 2ms turnaround.
func NewFob(key [16]byte) *Fob {
	return &Fob{ProcessingTime: 2 * sim.Millisecond, key: key}
}

// respond computes the fob's response to a challenge.
func (f *Fob) respond(challenge [8]byte) ([]byte, error) {
	if f.Disabled {
		return nil, ErrNoResponse
	}
	mac, err := she.CMAC(f.key[:], challenge[:])
	if err != nil {
		return nil, err
	}
	return mac[:8], nil // 64-bit truncated response
}

// Car is the vehicle-side PKES unit.
type Car struct {
	Pos Position
	key [16]byte
	// LFRangeM is the low-frequency wake-up range: a real fob must be this
	// close to even hear the challenge (~2m in production systems).
	LFRangeM float64
	// UHFRangeM is the fob-to-car response range (~50m).
	UHFRangeM float64

	// DistanceBounding enables the RTT countermeasure.
	DistanceBounding bool
	// RTTBudget is the maximum accepted round-trip time. A sound setting
	// is fob processing + 2×LF-range flight + guard band.
	RTTBudget sim.Duration

	challengeCounter uint64

	Unlocks       sim.Counter
	Rejections    sim.Counter
	BoundingTrips sim.Counter
	ReplayRejects sim.Counter
	seenResponses map[[8]byte]bool

	// Observability (nil when off); see Instrument in obs.go.
	obsTr     *obs.Tracer
	obsSub    obs.Label
	obsUnlock obs.Label
	obsReject obs.Label
	obsClock  func() sim.Time
}

// NewCar creates a car with production-like ranges.
func NewCar(key [16]byte) *Car {
	return &Car{
		key:           key,
		LFRangeM:      2,
		UHFRangeM:     50,
		RTTBudget:     0,
		seenResponses: make(map[[8]byte]bool),
	}
}

// ResetState rewinds the car to its post-NewCar state for pooled reuse:
// production-default ranges, fresh challenge counter, cleared replay
// cache and counters, observability detached. The shared key survives
// (it is construction wiring, derived from the VIN).
func (c *Car) ResetState() {
	c.Pos = Position{}
	c.LFRangeM = 2
	c.UHFRangeM = 50
	c.DistanceBounding = false
	c.RTTBudget = 0
	c.challengeCounter = 0
	c.Unlocks.Value = 0
	c.Rejections.Value = 0
	c.BoundingTrips.Value = 0
	c.ReplayRejects.Value = 0
	for k := range c.seenResponses {
		delete(c.seenResponses, k)
	}
	c.obsTr = nil
	c.obsSub, c.obsUnlock, c.obsReject = 0, 0, 0
	c.obsClock = nil
}

// Unlock outcomes.
var (
	ErrOutOfRange  = errors.New("keyless: fob out of LF range")
	ErrNoResponse  = errors.New("keyless: no fob response")
	ErrBadResponse = errors.New("keyless: response verification failed")
	ErrRTTExceeded = errors.New("keyless: round-trip time exceeds distance bound")
	ErrReplay      = errors.New("keyless: response replayed")
)

// challenge mints a fresh, never-repeating challenge.
func (c *Car) challenge() [8]byte {
	var ch [8]byte
	c.challengeCounter++
	binary.BigEndian.PutUint64(ch[:], c.challengeCounter)
	return ch
}

// verify checks a fob response and enforces single-use.
func (c *Car) verify(challenge [8]byte, resp []byte) error {
	want, err := she.CMAC(c.key[:], challenge[:])
	if err != nil {
		return err
	}
	if len(resp) < 8 || subtle.ConstantTimeCompare(want[:8], resp[:8]) != 1 {
		return ErrBadResponse
	}
	var r8 [8]byte
	copy(r8[:], resp)
	if c.seenResponses[r8] {
		c.ReplayRejects.Inc()
		return ErrReplay
	}
	c.seenResponses[r8] = true
	return nil
}

// TryUnlock runs the PKES exchange with a fob over the direct radio path
// and reports whether the car unlocks. The returned RTT is what the
// distance-bounding check measured.
func (c *Car) TryUnlock(f *Fob) (rtt sim.Duration, err error) {
	d := c.Pos.Dist(f.Pos)
	if d > c.LFRangeM {
		c.Rejections.Inc()
		c.emitVerdict(false, "range", 0)
		return 0, fmt.Errorf("%w: %.1fm > %.1fm", ErrOutOfRange, d, c.LFRangeM)
	}
	ch := c.challenge()
	resp, err := f.respond(ch)
	if err != nil {
		c.Rejections.Inc()
		c.emitVerdict(false, "no-response", 0)
		return 0, err
	}
	rtt = sim.Duration(2*d*PropagationPerM) + f.ProcessingTime
	return c.finish(rtt, ch, resp)
}

// Relay is the two-antenna relay rig of the Francillon attack: antenna A
// sits near the car, antenna B near the victim's fob (e.g. by the front
// door while the car is in the driveway); the link between them adds
// processing latency.
type Relay struct {
	PosA Position // near the car
	PosB Position // near the fob
	// Latency is the relay electronics' added delay per direction.
	Latency sim.Duration
}

// TryRelayUnlock runs the PKES exchange through the relay. The fob only
// needs to be within LF range of antenna B; the car hears the response as
// if the fob were present. Physics still applies: the measured RTT covers
// the full car→A→B→fob→B→A→car path plus two relay latencies.
func (c *Car) TryRelayUnlock(r *Relay, f *Fob) (rtt sim.Duration, err error) {
	dCarA := c.Pos.Dist(r.PosA)
	dBFob := r.PosB.Dist(f.Pos)
	if dCarA > c.LFRangeM {
		c.Rejections.Inc()
		c.emitVerdict(false, "range", 0)
		return 0, fmt.Errorf("%w: relay antenna %.1fm from car", ErrOutOfRange, dCarA)
	}
	if dBFob > c.LFRangeM {
		c.Rejections.Inc()
		c.emitVerdict(false, "range", 0)
		return 0, fmt.Errorf("%w: fob %.1fm from relay antenna", ErrOutOfRange, dBFob)
	}
	ch := c.challenge()
	resp, err := f.respond(ch)
	if err != nil {
		c.Rejections.Inc()
		c.emitVerdict(false, "no-response", 0)
		return 0, err
	}
	dAB := r.PosA.Dist(r.PosB)
	oneWay := sim.Duration((dCarA+dAB+dBFob)*PropagationPerM) + r.Latency
	rtt = 2*oneWay + f.ProcessingTime
	return c.finish(rtt, ch, resp)
}

// finish applies distance bounding and crypto verification.
func (c *Car) finish(rtt sim.Duration, ch [8]byte, resp []byte) (sim.Duration, error) {
	if c.DistanceBounding {
		c.BoundingTrips.Inc()
		budget := c.RTTBudget
		if budget == 0 {
			// Default: fob processing + flight over 2×LF range + 25% guard.
			budget = sim.Duration(float64(2*sim.Millisecond)+2*c.LFRangeM*PropagationPerM) * 5 / 4
		}
		if rtt > budget {
			c.Rejections.Inc()
			c.emitVerdict(false, "rtt", rtt)
			return rtt, fmt.Errorf("%w: %v > %v", ErrRTTExceeded, rtt, budget)
		}
	}
	if err := c.verify(ch, resp); err != nil {
		c.Rejections.Inc()
		reason := "crypto"
		if errors.Is(err, ErrReplay) {
			reason = "replay"
		}
		c.emitVerdict(false, reason, rtt)
		return rtt, err
	}
	c.Unlocks.Inc()
	c.emitVerdict(true, "", rtt)
	return rtt, nil
}
