// Package flexray simulates a FlexRay cluster at the communication-cycle
// level: a TDMA static segment with per-slot ownership, a minislot-based
// dynamic segment, the 11-bit header CRC and the 24-bit frame CRC.
//
// FlexRay is the deterministic, safety-oriented IVN of the paper's Secure
// Networks layer. Like CAN and LIN it carries no authentication: slot
// ownership is enforced only by configuration, so a compromised node that
// transmits in a foreign slot collides with (and can suppress) the
// legitimate sender — a behaviour the attack experiments rely on.
package flexray

import (
	"errors"
	"fmt"

	"autosec/internal/sim"
)

// SlotID identifies a static or dynamic slot (1-based, per the standard).
type SlotID int

// Errors.
var (
	ErrSlotRange    = errors.New("flexray: slot out of range")
	ErrSlotOwned    = errors.New("flexray: slot already assigned")
	ErrPayloadRange = errors.New("flexray: payload must be 0..254 bytes, even length")
)

// Config fixes the cluster's timing parameters. All durations derive from
// the macrotick.
type Config struct {
	// Macrotick is the cluster-wide time base (typically 1us).
	Macrotick sim.Duration
	// StaticSlots is the number of static slots per cycle.
	StaticSlots int
	// StaticSlotMacroticks is the length of one static slot.
	StaticSlotMacroticks int
	// Minislots is the number of dynamic-segment minislots per cycle.
	Minislots int
	// MinislotMacroticks is the length of one minislot.
	MinislotMacroticks int
	// NITMacroticks is the network idle time closing each cycle.
	NITMacroticks int
}

// DefaultConfig mirrors a common 5ms-cycle configuration.
func DefaultConfig() Config {
	return Config{
		Macrotick:            sim.Microsecond,
		StaticSlots:          60,
		StaticSlotMacroticks: 50,
		Minislots:            200,
		MinislotMacroticks:   5,
		NITMacroticks:        1000,
	}
}

// CycleLength returns the duration of one communication cycle.
func (c Config) CycleLength() sim.Duration {
	mt := c.StaticSlots*c.StaticSlotMacroticks + c.Minislots*c.MinislotMacroticks + c.NITMacroticks
	return sim.Duration(mt) * c.Macrotick
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Macrotick <= 0 || c.StaticSlots <= 0 || c.StaticSlotMacroticks <= 0 ||
		c.Minislots < 0 || c.MinislotMacroticks <= 0 || c.NITMacroticks < 0 {
		return errors.New("flexray: non-positive timing parameter")
	}
	return nil
}

// Frame is a FlexRay frame as delivered to receivers.
type Frame struct {
	Slot    SlotID
	Cycle   int
	Payload []byte
	Sender  string
	// NullFrame marks a static slot whose owner had nothing to send.
	NullFrame bool
	// Dynamic marks a minislot-arbitrated dynamic-segment frame; static
	// TDMA frames leave it clear so receivers can tell schedule-owned
	// traffic from on-demand transmission.
	Dynamic bool
}

// HeaderCRC computes the 11-bit header CRC (poly 0xB85, x^11+x^9+x^8+x^7+x^2+1)
// over the (sync, startup, frameID, length) header bits.
func HeaderCRC(slot SlotID, payloadWords int) uint16 {
	// Pack: 1 sync bit (0), 1 startup bit (0), 11-bit frame ID, 7-bit length.
	var bits []bool
	push := func(v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			bits = append(bits, v>>uint(i)&1 == 1)
		}
	}
	push(0, 2)
	push(uint64(slot), 11)
	push(uint64(payloadWords), 7)
	const poly = 0xB85
	crc := uint16(0x1A) // init value per spec
	for _, b := range bits {
		in := uint16(0)
		if b {
			in = 1
		}
		fb := in ^ (crc >> 10 & 1)
		crc = (crc << 1) & 0x7FF
		if fb == 1 {
			crc ^= poly
		}
	}
	return crc
}

// FrameCRC24 computes the 24-bit frame CRC (poly 0x5D6DCB) over the payload.
func FrameCRC24(payload []byte) uint32 {
	const poly = 0x5D6DCB
	crc := uint32(0xFEDCBA) // init value (channel A)
	for _, b := range payload {
		for i := 7; i >= 0; i-- {
			in := uint32(b>>uint(i)) & 1
			fb := in ^ (crc >> 23 & 1)
			crc = (crc << 1) & 0xFFFFFF
			if fb == 1 {
				crc ^= poly
			}
		}
	}
	return crc
}

// PublishFunc supplies the payload for a node's slot in a given cycle.
// Returning nil sends a null frame.
type PublishFunc func(cycle int) []byte

// ReceiveFunc consumes frames seen on the bus.
type ReceiveFunc func(at sim.Time, f Frame)

// slotAssignment binds a slot to its owning node.
type slotAssignment struct {
	owner   string
	publish PublishFunc
}

// Cluster is a FlexRay network on one channel.
type Cluster struct {
	Name   string
	cfg    Config
	kernel *sim.Kernel

	// static[s-1] owns static slot s (nil when unassigned); intruders[s-1]
	// are its rogue transmitters.
	static    []*slotAssignment
	intruders [][]*slotAssignment
	dynamic   []dynRequest
	receivers []ReceiveFunc

	// fireSlot[s-1] and nextCycle are the kernel callbacks every cycle
	// schedules, bound once so a cycle allocates none.
	fireSlot  []func()
	nextCycle func()

	cycle   int
	running bool
	stopped bool

	// Stats.
	FramesOK   sim.Counter
	NullFrames sim.Counter
	Collisions sim.Counter
	DynSent    sim.Counter
	DynStarved sim.Counter

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base frBaseline
}

type dynRequest struct {
	slot    SlotID // priority: lower dynamic slot = earlier minislot claim
	sender  string
	payload []byte
}

// NewCluster creates a cluster with the given configuration.
func NewCluster(k *sim.Kernel, name string, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Name:      name,
		cfg:       cfg,
		kernel:    k,
		static:    make([]*slotAssignment, cfg.StaticSlots),
		intruders: make([][]*slotAssignment, cfg.StaticSlots),
		fireSlot:  make([]func(), cfg.StaticSlots),
	}
	for i := range c.fireSlot {
		slot := SlotID(i + 1)
		c.fireSlot[i] = func() { c.fireStatic(slot) }
	}
	c.nextCycle = func() {
		c.cycle++
		c.runCycle()
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Cycle reports the current communication cycle counter.
func (c *Cluster) Cycle() int { return c.cycle }

// AssignStatic gives a node exclusive ownership of a static slot.
func (c *Cluster) AssignStatic(slot SlotID, owner string, fn PublishFunc) error {
	if slot < 1 || int(slot) > c.cfg.StaticSlots {
		return fmt.Errorf("%w: %d", ErrSlotRange, slot)
	}
	if c.static[slot-1] != nil {
		return fmt.Errorf("%w: %d", ErrSlotOwned, slot)
	}
	c.static[slot-1] = &slotAssignment{owner: owner, publish: fn}
	return nil
}

// Intrude registers a rogue transmitter in a slot it does not own —
// the attack primitive. Transmissions from an intruder collide with the
// legitimate owner's frame and destroy both.
func (c *Cluster) Intrude(slot SlotID, sender string, fn PublishFunc) error {
	if slot < 1 || int(slot) > c.cfg.StaticSlots {
		return fmt.Errorf("%w: %d", ErrSlotRange, slot)
	}
	c.intruders[slot-1] = append(c.intruders[slot-1], &slotAssignment{owner: sender, publish: fn})
	return nil
}

// OnReceive registers a frame observer.
func (c *Cluster) OnReceive(fn ReceiveFunc) { c.receivers = append(c.receivers, fn) }

// SendDynamic queues a payload for the dynamic segment of the next cycle.
// Lower slot numbers claim earlier minislots (higher priority). Payload
// must be an even number of bytes, at most 254.
func (c *Cluster) SendDynamic(slot SlotID, sender string, payload []byte) error {
	if len(payload) > 254 || len(payload)%2 != 0 {
		return fmt.Errorf("%w: %d", ErrPayloadRange, len(payload))
	}
	c.dynamic = append(c.dynamic, dynRequest{slot: slot, sender: sender, payload: append([]byte(nil), payload...)})
	return nil
}

// Start begins executing communication cycles.
func (c *Cluster) Start() error {
	if c.running {
		return errors.New("flexray: already running")
	}
	c.running = true
	c.stopped = false
	c.runCycle()
	return nil
}

// Stop halts after the current cycle.
func (c *Cluster) Stop() { c.stopped = true; c.running = false }

func (c *Cluster) runCycle() {
	if c.stopped {
		return
	}
	base := c.kernel.Now()
	slotLen := sim.Duration(c.cfg.StaticSlotMacroticks) * c.cfg.Macrotick

	// Static segment.
	for i, fire := range c.fireSlot {
		c.kernel.At(base+sim.Duration(i)*slotLen, fire)
	}

	// Dynamic segment: requests sorted by slot priority claim minislots
	// greedily; a frame occupies ceil(bytes/2)+4 minislots in this model.
	dynBase := base + sim.Duration(c.cfg.StaticSlots)*slotLen
	miniLen := sim.Duration(c.cfg.MinislotMacroticks) * c.cfg.Macrotick
	reqs := c.takeDynamicSorted()
	mini := 0
	for _, r := range reqs {
		need := (len(r.payload)+1)/2 + 4
		if mini+need > c.cfg.Minislots {
			c.DynStarved.Inc()
			continue
		}
		r := r
		at := dynBase + sim.Duration(mini)*miniLen
		c.kernel.At(at, func() {
			c.DynSent.Inc()
			c.deliver(Frame{Slot: r.slot, Cycle: c.cycle, Payload: r.payload, Sender: r.sender, Dynamic: true})
		})
		mini += need
	}

	// Next cycle after NIT.
	c.kernel.At(base+c.cfg.CycleLength(), c.nextCycle)
}

// takeDynamicSorted drains the dynamic queue in priority order (stable).
func (c *Cluster) takeDynamicSorted() []dynRequest {
	reqs := c.dynamic
	c.dynamic = nil
	// Insertion sort: queues are short and stability matters.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].slot < reqs[j-1].slot; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	return reqs
}

func (c *Cluster) fireStatic(slot SlotID) {
	owner := c.static[slot-1]
	intruders := c.intruders[slot-1]
	txCount := len(intruders)
	var payload []byte
	var sender string
	if owner != nil {
		payload = owner.publish(c.cycle)
		sender = owner.owner
		if payload != nil {
			txCount++
		}
	}
	if txCount > 1 {
		// Two transmitters in one slot: collision destroys the slot.
		c.Collisions.Inc()
		return
	}
	if txCount == 1 && len(intruders) == 1 {
		payload = intruders[0].publish(c.cycle)
		sender = intruders[0].owner
	}
	if payload == nil {
		if owner != nil {
			c.NullFrames.Inc()
			c.deliver(Frame{Slot: slot, Cycle: c.cycle, Sender: sender, NullFrame: true})
		}
		return
	}
	if len(payload) > 254 || len(payload)%2 != 0 {
		return // invalid payload is dropped by the encoder
	}
	c.FramesOK.Inc()
	c.deliver(Frame{Slot: slot, Cycle: c.cycle, Payload: payload, Sender: sender})
}

func (c *Cluster) deliver(f Frame) {
	now := c.kernel.Now()
	for _, fn := range c.receivers {
		fn(now, f)
	}
}
