// Package lin simulates a Local Interconnect Network cluster: a single
// master that polls slaves according to a schedule table, protected-ID
// parity, and the classic/enhanced checksum of LIN 2.x.
//
// LIN is the cheapest of the in-vehicle networks the paper's Secure
// Networks layer covers, and — like CAN — it has no built-in security
// mechanism: any node that can drive the wire can publish any frame. The
// simulation exposes that property to attack scenarios.
package lin

import (
	"errors"
	"fmt"

	"autosec/internal/sim"
)

// FrameID is a LIN frame identifier, 0..59 for application frames
// (60/61 are diagnostic, 62/63 reserved).
type FrameID byte

// MaxFrameID is the largest valid LIN identifier.
const MaxFrameID FrameID = 0x3F

// Errors.
var (
	ErrIDRange      = errors.New("lin: frame ID out of range")
	ErrDataLength   = errors.New("lin: payload must be 1..8 bytes")
	ErrParity       = errors.New("lin: PID parity error")
	ErrDupPublisher = errors.New("lin: frame already has a publisher")
)

// PID computes the protected identifier: the 6-bit ID plus the two parity
// bits defined by LIN 2.x (P0 = ID0⊕ID1⊕ID2⊕ID4, P1 = ¬(ID1⊕ID3⊕ID4⊕ID5)).
func PID(id FrameID) (byte, error) {
	if id > MaxFrameID {
		return 0, fmt.Errorf("%w: %#x", ErrIDRange, id)
	}
	b := byte(id)
	bit := func(n uint) byte { return (b >> n) & 1 }
	p0 := bit(0) ^ bit(1) ^ bit(2) ^ bit(4)
	p1 := 1 ^ (bit(1) ^ bit(3) ^ bit(4) ^ bit(5))
	return b | p0<<6 | p1<<7, nil
}

// CheckPID validates the parity bits and extracts the frame ID.
func CheckPID(pid byte) (FrameID, error) {
	id := FrameID(pid & 0x3F)
	want, _ := PID(id)
	if want != pid {
		return 0, fmt.Errorf("%w: %#x", ErrParity, pid)
	}
	return id, nil
}

// ChecksumModel selects between LIN 1.x classic (data only) and LIN 2.x
// enhanced (PID + data) checksums.
type ChecksumModel int

const (
	// Classic covers the data bytes only.
	Classic ChecksumModel = iota
	// Enhanced covers the protected ID and the data bytes.
	Enhanced
)

// Checksum computes the inverted modulo-256-with-carry sum used by LIN.
func Checksum(model ChecksumModel, pid byte, data []byte) byte {
	var sum uint16
	if model == Enhanced {
		sum = uint16(pid)
	}
	for _, b := range data {
		sum += uint16(b)
		if sum >= 256 {
			sum -= 255
		}
	}
	return ^byte(sum)
}

// VerifyChecksum reports whether cs is the correct checksum for the frame.
func VerifyChecksum(model ChecksumModel, pid byte, data []byte, cs byte) bool {
	return Checksum(model, pid, data) == cs
}

// Frame is a completed LIN transfer: header ID plus the published response.
// Sender names the node that published the response: the owning slave for
// scheduled frames, "intruder" for rogue responses, or the caller-supplied
// name for sporadic master transmissions.
type Frame struct {
	ID     FrameID
	Data   []byte
	Sender string
}

// PublishFunc produces the response payload when the master polls the
// frame the slave publishes. Returning nil means "no response" (a
// slave-not-responding error on the wire).
type PublishFunc func(at sim.Time) []byte

// SubscribeFunc consumes a completed frame at a subscriber node. As with
// CAN's ReceiveFunc, f.Data is valid only for the duration of the call:
// the cluster reuses the wire buffer for later transfers, so a
// subscriber that keeps the data copies it.
type SubscribeFunc func(at sim.Time, f Frame)

// Slave is a LIN slave node with at most one published frame per ID and
// any number of subscriptions.
type Slave struct {
	Name       string
	publishers map[FrameID]PublishFunc
	subs       map[FrameID][]SubscribeFunc
}

// NewSlave creates a slave node.
func NewSlave(name string) *Slave {
	return &Slave{
		Name:       name,
		publishers: make(map[FrameID]PublishFunc),
		subs:       make(map[FrameID][]SubscribeFunc),
	}
}

// Publish registers the slave as the publisher of the frame ID.
func (s *Slave) Publish(id FrameID, fn PublishFunc) error {
	if id > MaxFrameID {
		return fmt.Errorf("%w: %#x", ErrIDRange, id)
	}
	if _, dup := s.publishers[id]; dup {
		return fmt.Errorf("%w: %#x on %s", ErrDupPublisher, id, s.Name)
	}
	s.publishers[id] = fn
	return nil
}

// Subscribe registers interest in a frame ID.
func (s *Slave) Subscribe(id FrameID, fn SubscribeFunc) {
	s.subs[id] = append(s.subs[id], fn)
}

// ScheduleEntry is one slot in the master's schedule table.
type ScheduleEntry struct {
	ID FrameID
	// Delay is the slot duration before the next entry runs. It must be at
	// least the frame's wire time; the master does not check this (a
	// mis-sized schedule is a real integration bug worth simulating).
	Delay sim.Duration
}

// Cluster is a LIN bus: one master, its schedule table, and the slaves.
type Cluster struct {
	Name      string
	kernel    *sim.Kernel
	bitrate   int64
	model     ChecksumModel
	slaves    []*Slave
	intruders map[FrameID]PublishFunc
	schedule  []ScheduleEntry
	running   bool
	stopped   bool

	// ResponseCollisions counts slots where a rogue publisher answered on
	// top of the legitimate one, destroying both responses.
	ResponseCollisions sim.Counter

	// Stats.
	FramesOK        sim.Counter
	NoResponse      sim.Counter
	ChecksumErrors  sim.Counter
	CorruptResponse float64 // probability a response is corrupted in flight
	errStream       *sim.Stream

	observers []SubscribeFunc

	// Pooled kernel-event nodes: steps are pending schedule-table slots,
	// transfers are frames on the wire. steps and transfers hold every
	// node the cluster ever made, freeSteps and freeTransfers the idle
	// ones.
	steps, freeSteps         []*step
	transfers, freeTransfers []*transfer

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base linBaseline
}

// step is one pooled pending schedule-table slot: when it fires, the
// master polls entry next. fireFn is bound once, when the node is made,
// so a warm schedule runs without allocating.
type step struct {
	c      *Cluster
	next   int
	fireFn func()
}

func (n *step) fire() {
	c, i := n.c, n.next
	c.freeSteps = append(c.freeSteps, n)
	c.runEntry(i)
}

// transfer is one pooled header+response transfer on the wire: it waits
// out the frame time, then verifies the checksum and delivers. The node
// owns its wire buffer and reuses it for later transfers; deliverFn is
// bound once, when the node is made.
type transfer struct {
	c         *Cluster
	id        FrameID
	pid, cs   byte
	sender    string
	wire      []byte
	deliverFn func()
}

// deliver completes the transfer at subscribers and observers, then
// returns the node to the pool: f.Data is valid only until then.
func (n *transfer) deliver() {
	c := n.c
	if VerifyChecksum(c.model, n.pid, n.wire, n.cs) {
		c.FramesOK.Inc()
		f := Frame{ID: n.id, Data: n.wire, Sender: n.sender}
		for _, s := range c.slaves {
			for _, fn := range s.subs[n.id] {
				fn(c.kernel.Now(), f)
			}
		}
		for _, fn := range c.observers {
			fn(c.kernel.Now(), f)
		}
	} else {
		c.ChecksumErrors.Inc()
	}
	c.freeTransfers = append(c.freeTransfers, n)
}

// NewCluster creates a LIN cluster at the given bitrate (typically 19200).
func NewCluster(k *sim.Kernel, name string, bitrate int64, model ChecksumModel) *Cluster {
	if bitrate <= 0 {
		panic("lin: bitrate must be positive")
	}
	return &Cluster{
		Name:      name,
		kernel:    k,
		bitrate:   bitrate,
		model:     model,
		intruders: make(map[FrameID]PublishFunc),
		errStream: k.Stream("lin." + name + ".errors"),
	}
}

// Intrude registers a rogue publisher for a frame ID — the attack
// primitive: LIN has no arbitration in the response slot, so a node that
// answers a header it does not own either injects data (unowned ID) or
// collides with the legitimate response (owned ID), destroying it.
func (c *Cluster) Intrude(id FrameID, fn PublishFunc) error {
	if id > MaxFrameID {
		return fmt.Errorf("%w: %#x", ErrIDRange, id)
	}
	c.intruders[id] = fn
	return nil
}

// AddSlave attaches a slave to the cluster.
func (c *Cluster) AddSlave(s *Slave) { c.slaves = append(c.slaves, s) }

// SetSchedule installs the master's schedule table.
func (c *Cluster) SetSchedule(entries []ScheduleEntry) { c.schedule = entries }

// Observe registers a bus-level observer seeing every completed frame
// (the LIN analogue of a CAN sniffer).
func (c *Cluster) Observe(fn SubscribeFunc) { c.observers = append(c.observers, fn) }

// FrameTime returns the on-wire duration of a header plus an n-byte
// response: break+sync+PID (34 bits) and (n+1) bytes at 10 bits each,
// plus a 10% response-space allowance.
func (c *Cluster) FrameTime(n int) sim.Duration {
	bits := 34 + (n+1)*10
	ns := float64(bits) / float64(c.bitrate) * 1e9 * 1.1
	return sim.Duration(ns)
}

// Start begins executing the schedule table from the current virtual time.
func (c *Cluster) Start() error {
	if len(c.schedule) == 0 {
		return errors.New("lin: empty schedule table")
	}
	if c.running {
		return errors.New("lin: already running")
	}
	c.running = true
	c.stopped = false
	c.runEntry(0)
	return nil
}

// Stop halts the schedule after the current slot.
func (c *Cluster) Stop() { c.stopped = true; c.running = false }

func (c *Cluster) runEntry(i int) {
	if c.stopped {
		return
	}
	e := c.schedule[i%len(c.schedule)]
	c.poll(e.ID)
	var n *step
	if k := len(c.freeSteps); k > 0 {
		n = c.freeSteps[k-1]
		c.freeSteps = c.freeSteps[:k-1]
	} else {
		n = &step{c: c}
		n.fireFn = n.fire
		c.steps = append(c.steps, n)
	}
	n.next = i + 1
	c.kernel.After(e.Delay, n.fireFn)
}

// poll sends the header for id and completes the transfer with the
// publisher's response, if any.
func (c *Cluster) poll(id FrameID) {
	pid, err := PID(id)
	if err != nil {
		return
	}
	var pub PublishFunc
	var sender string
	for _, s := range c.slaves {
		if fn, ok := s.publishers[id]; ok {
			pub = fn
			sender = s.Name
			break
		}
	}
	if intruder, ok := c.intruders[id]; ok {
		if pub != nil {
			// Both the owner and the intruder drive the response slot: the
			// waveforms collide and every subscriber sees garbage that the
			// checksum rejects.
			if owned := pub(c.kernel.Now()); owned != nil && intruder(c.kernel.Now()) != nil {
				c.ResponseCollisions.Inc()
				c.ChecksumErrors.Inc()
				return
			}
		}
		// Unowned (or silent owner): the intruder's response stands.
		pub = intruder
		sender = "intruder"
	}
	if pub == nil {
		c.NoResponse.Inc()
		return
	}
	data := pub(c.kernel.Now())
	if data == nil {
		c.NoResponse.Inc()
		return
	}
	if len(data) == 0 || len(data) > 8 {
		c.NoResponse.Inc()
		return
	}
	c.transmit(id, pid, sender, data)
}

// transmit completes a header+response transfer: checksum computation,
// the in-flight corruption model, and delayed delivery to subscribers and
// observers. Shared by the schedule-table poll path and SendSporadic so
// both draw from the error stream in the same order.
func (c *Cluster) transmit(id FrameID, pid byte, sender string, data []byte) {
	var n *transfer
	if k := len(c.freeTransfers); k > 0 {
		n = c.freeTransfers[k-1]
		c.freeTransfers = c.freeTransfers[:k-1]
	} else {
		n = &transfer{c: c}
		n.deliverFn = n.deliver
		c.transfers = append(c.transfers, n)
	}
	n.id, n.pid, n.sender = id, pid, sender
	n.cs = Checksum(c.model, pid, data)
	n.wire = append(n.wire[:0], data...)
	if c.CorruptResponse > 0 && c.errStream.Bool(c.CorruptResponse) {
		idx := c.errStream.Intn(len(n.wire))
		n.wire[idx] ^= 1 << uint(c.errStream.Intn(8))
	}
	c.kernel.At(c.kernel.Now()+c.FrameTime(len(n.wire)), n.deliverFn)
}

// SendSporadic transmits an unscheduled master-initiated frame: the master
// sends the header for id and supplies the response itself, the LIN 2.x
// sporadic-frame pattern. It is the transmit primitive the netif adapter
// uses to inject gateway-forwarded traffic into the cluster.
func (c *Cluster) SendSporadic(sender string, id FrameID, data []byte) error {
	pid, err := PID(id)
	if err != nil {
		return err
	}
	if len(data) == 0 || len(data) > 8 {
		return fmt.Errorf("%w: %d", ErrDataLength, len(data))
	}
	c.transmit(id, pid, sender, data)
	return nil
}
