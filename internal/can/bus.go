package can

import (
	"errors"
	"fmt"
	"math"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Bus is a simulated CAN bus. Controllers attach to it; at every bus-idle
// instant the pending frame with the lowest arbitration value wins and is
// transmitted to every other attached controller after the bit-accurate
// frame time. A Gaussian-free, Bernoulli-per-frame bit error model can be
// enabled to drive the error-counter state machine.
//
// The data path is amortized: completion and arbitration callbacks are
// allocated once per bus (not per frame), transmit requests live by value
// in per-controller ring buffers, and the Bernoulli per-frame success
// probability is memoized by frame bit-length, so a saturated bus costs no
// steady-state allocations beyond the payload clone made by Send.
type Bus struct {
	Name string

	kernel      *sim.Kernel
	bitrate     int64 // nominal bits per second
	dataBitrate int64 // FD data-phase bits per second (BRS frames)

	controllers []*Controller
	busy        bool
	busyUntil   sim.Time
	kickPending bool

	// Reusable callbacks, bound once in NewBus so the hot path schedules
	// no new closures.
	kickFn     func() // runs b.kick
	deferredFn func() // clears kickPending, then kicks
	completeFn func() // finishes the in-flight transmission

	// In-flight transmission state, valid while busy. One slot suffices:
	// CAN is a single shared medium, so at most one frame is on the wire.
	txSender *Controller
	txDur    sim.Duration
	txBits   int
	// txScratch holds a by-value snapshot of the completing request while
	// observers and receivers run, so ring-buffer growth during delivery
	// (a handler calling Send) can never invalidate the frame mid-dispatch.
	// Observers must clone the frame if they retain it past the callback.
	txScratch txRequest

	// BitErrorRate is the probability that any single transmitted bit is
	// corrupted. Applied per frame as 1-(1-BER)^bits.
	BitErrorRate float64
	// TargetedError, when non-nil, lets an adversary destroy selected
	// frames by forcing bit errors during their transmission — the
	// primitive behind the Cho & Shin bus-off attack, where a malicious
	// node transmits dominant bits over a victim's recessive ones. Return
	// true to corrupt the frame. The transmitter's TEC rises by 8 per hit,
	// so sustained targeting drives the victim to bus-off.
	TargetedError func(f *Frame, sender *Controller) bool
	errStream     *sim.Stream

	// pOK memo: pokTab[n] = (1-BER)^n for the BER it was built against.
	// Rebuilt lazily if BitErrorRate is reassigned mid-simulation.
	pokBER float64
	pokTab []float64

	// Stats.
	FramesOK      sim.Counter
	FramesErrored sim.Counter
	BitsOnWire    int64
	busyTime      sim.Duration
	startedAt     sim.Time

	sniffers []SnifferFunc

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base busBaseline

	// Observability (nil when off): labels are interned once in
	// Instrument, so the per-frame emit in complete is allocation-free.
	obsTr      *obs.Tracer
	obsSub     obs.Label // "can"
	obsTx      obs.Label // "tx"
	obsTxErr   obs.Label // "tx-error"
	obsBus     obs.Label // the bus name
	obsFrameUS *obs.Histogram
}

// SnifferFunc observes every frame that completes on the bus (whether or
// not it was corrupted). Sniffers model diagnostic taps: they see traffic
// but cannot alter it. The *Frame is a snapshot that is only valid for the
// duration of the callback; clone it to retain it.
type SnifferFunc func(at sim.Time, f *Frame, sender *Controller, corrupted bool)

// NewBus creates a bus on the kernel at the given nominal bitrate. The FD
// data-phase bitrate defaults to 4x nominal; override with SetDataBitrate.
func NewBus(k *sim.Kernel, name string, bitrate int64) *Bus {
	if bitrate <= 0 {
		panic("can: bitrate must be positive")
	}
	b := &Bus{
		Name:        name,
		kernel:      k,
		bitrate:     bitrate,
		dataBitrate: 4 * bitrate,
		errStream:   k.Stream("can.bus." + name + ".errors"),
		startedAt:   k.Now(),
	}
	b.kickFn = b.kick
	b.deferredFn = func() {
		b.kickPending = false
		b.kick()
	}
	b.completeFn = b.onWireDone
	return b
}

// SetDataBitrate sets the CAN FD data-phase bitrate used by BRS frames.
func (b *Bus) SetDataBitrate(rate int64) {
	if rate <= 0 {
		panic("can: data bitrate must be positive")
	}
	b.dataBitrate = rate
}

// Attach connects a controller to the bus.
func (b *Bus) Attach(c *Controller) {
	c.bus = b
	b.controllers = append(b.controllers, c)
}

// Sniff registers a passive observer of all completed frames.
func (b *Bus) Sniff(fn SnifferFunc) { b.sniffers = append(b.sniffers, fn) }

// Load reports the fraction of elapsed virtual time the bus was busy.
func (b *Bus) Load() float64 {
	elapsed := b.kernel.Now() - b.startedAt
	if elapsed <= 0 {
		return 0
	}
	return float64(b.busyTime) / float64(elapsed)
}

// frameTime returns the on-wire duration of a frame at the configured
// bitrates.
func (b *Bus) frameTime(f *Frame) (sim.Duration, int, error) {
	arbBits, dataBits, err := BitLength(f)
	if err != nil {
		return 0, 0, err
	}
	ns := float64(arbBits)/float64(b.bitrate)*1e9 +
		float64(dataBits)/float64(b.dataBitrate)*1e9
	return sim.Duration(math.Ceil(ns)), arbBits + dataBits, nil
}

// pOK returns (1-BitErrorRate)^bits from the memo table, extending (or,
// after a BER change, rebuilding) it on demand. Entries are computed with
// the same math.Pow expression the un-memoized model used, so replacing
// the per-frame Pow changes no stream draw.
func (b *Bus) pOK(bits int) float64 {
	if b.pokBER != b.BitErrorRate {
		b.pokBER = b.BitErrorRate
		b.pokTab = b.pokTab[:0]
	}
	for len(b.pokTab) <= bits {
		b.pokTab = append(b.pokTab, math.Pow(1-b.pokBER, float64(len(b.pokTab))))
	}
	return b.pokTab[bits]
}

// scheduleKick defers an arbitration round to the end of the current
// virtual instant, so that every frame enqueued at the same time competes —
// just as all nodes start their SOF together on a real wire.
func (b *Bus) scheduleKick() {
	if b.kickPending || b.busy {
		return
	}
	b.kickPending = true
	b.kernel.After(0, b.deferredFn)
}

// kick starts an arbitration round if the bus is idle. Called whenever a
// controller enqueues a frame and whenever a transmission completes.
func (b *Bus) kick() {
	if b.busy {
		return
	}
	winner := b.arbitrate()
	if winner == nil {
		return
	}
	b.transmit(winner)
}

// arbitrate selects the controller whose head-of-queue frame has the
// lowest arbitration value. Bus-off controllers do not participate.
// Ties (two nodes sending the identical arbitration field) go to the
// earliest-attached controller; on a real bus this would be a bit error,
// but models that care use distinct IDs per node.
func (b *Bus) arbitrate() *Controller {
	var winner *Controller
	var best uint64 = math.MaxUint64
	for _, c := range b.controllers {
		if c.State() == BusOff || c.txLen == 0 {
			continue
		}
		v := c.txFront().frame.ArbitrationValue()
		if v < best {
			best = v
			winner = c
		}
	}
	return winner
}

// transmit puts the winner's head frame on the wire. The completion is the
// bus's one reusable event; per-transmit state rides in bus fields.
func (b *Bus) transmit(c *Controller) {
	dur, bits, err := b.frameTime(&c.txFront().frame)
	if err != nil {
		// Invalid frame slipped past Send validation; drop it.
		c.txPopFront()
		b.kernel.After(0, b.kickFn)
		return
	}
	b.busy = true
	b.busyUntil = b.kernel.Now() + dur
	b.txSender = c
	b.txDur = dur
	b.txBits = bits
	b.kernel.After(dur, b.completeFn)
}

// onWireDone fires when the in-flight frame's last bit leaves the wire.
func (b *Bus) onWireDone() {
	c := b.txSender
	dur, bits := b.txDur, b.txBits
	b.txSender = nil
	b.busy = false
	b.busyTime += dur
	b.BitsOnWire += int64(bits)
	b.complete(c, bits)
	b.kick()
}

// complete finishes a transmission: applies the bit error model, updates
// error counters, delivers or retransmits.
func (b *Bus) complete(c *Controller, bits int) {
	// Snapshot the request: observers and receivers get a pointer into the
	// bus-owned scratch slot, which stays valid even if a callback Sends
	// (growing the ring) or the controller goes bus-off (flushing it).
	tx := &b.txScratch
	*tx = *c.txFront()
	corrupted := false
	if b.BitErrorRate > 0 {
		corrupted = !b.errStream.Bool(b.pOK(bits))
	}
	if !corrupted && b.TargetedError != nil && b.TargetedError(&tx.frame, c) {
		corrupted = true
	}
	now := b.kernel.Now()
	for _, fn := range b.sniffers {
		fn(now, &tx.frame, c, corrupted)
	}
	if b.obsTr != nil {
		name := b.obsTx
		if corrupted {
			name = b.obsTxErr
		}
		b.obsTr.Span(now-b.txDur, b.txDur, b.obsSub, name, b.obsBus, int64(tx.frame.ID), int64(bits))
	}
	b.obsFrameUS.Observe(float64(b.txDur) / 1e3)
	if corrupted {
		b.FramesErrored.Inc()
		tx.done = nil
		// ISO 11898-1 rule 3/1: transmitter TEC += 8; receivers REC += 1.
		c.bumpTEC(8)
		for _, rc := range b.controllers {
			if rc != c {
				rc.bumpREC(1)
			}
		}
		if c.State() == BusOff {
			// Frame is lost; queue is flushed by the bus-off transition.
			return
		}
		// Automatic retransmission: frame stays at the head of the queue.
		return
	}
	b.FramesOK.Inc()
	c.txPopFront()
	c.decayTEC()
	c.FramesSent.Inc()
	if tx.done != nil {
		tx.done(now)
	}
	for _, rc := range b.controllers {
		if rc == c {
			continue
		}
		rc.deliver(now, &tx.frame, c)
	}
	tx.done = nil // do not retain the callback past this completion
	// Every receiver has run; the payload buffer (cloned at Send) can go
	// back to the sender's freelist. Re-entrant Sends during delivery are
	// safe: the freelist only gains this buffer here, after they ran.
	c.recycleData(tx.frame.Data)
	tx.frame.Data = nil
}

// ErrBusOff is returned by Controller.Send while the controller is bus-off.
var ErrBusOff = errors.New("can: controller is bus-off")

// ErrQueueFull is returned by Controller.Send when the TX queue limit is
// reached.
var ErrQueueFull = errors.New("can: transmit queue full")

// ControllerState is the fault-confinement state of ISO 11898-1.
type ControllerState int

const (
	// ErrorActive nodes participate fully and send active error flags.
	ErrorActive ControllerState = iota
	// ErrorPassive nodes may transmit but send passive error flags.
	ErrorPassive
	// BusOff nodes are disconnected until reset.
	BusOff
)

func (s ControllerState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	default:
		return fmt.Sprintf("ControllerState(%d)", int(s))
	}
}

type txRequest struct {
	frame Frame
	done  func(at sim.Time)
}

// ReceiveFunc handles a frame delivered to a controller. The *Frame is a
// snapshot that is only valid for the duration of the callback; clone it
// to retain it.
type ReceiveFunc func(at sim.Time, f *Frame, sender *Controller)

// AcceptanceFilter decides whether a received frame is passed up to the
// handlers. A nil filter accepts everything.
type AcceptanceFilter func(f *Frame) bool

// MaskFilter returns an acceptance filter matching (id & mask) == (match & mask),
// the classic CAN controller filter model.
func MaskFilter(match, mask ID) AcceptanceFilter {
	return func(f *Frame) bool { return f.ID&mask == match&mask }
}

// Controller is a CAN node: a transmit queue plus receive handlers and the
// fault-confinement counters.
type Controller struct {
	Name string

	bus *Bus
	// Transmit queue: a ring buffer of requests held by value, so Send
	// performs no per-request allocation and popping the head retains no
	// backing-array tail the way txQueue = txQueue[1:] did.
	txBuf  []txRequest
	txHead int
	txLen  int
	// MaxQueue bounds the TX queue; 0 means unlimited.
	MaxQueue int

	filter   AcceptanceFilter
	handlers []ReceiveFunc

	// dataFree recycles transmit payload buffers: Send clones the caller's
	// payload into a recycled buffer, and the bus returns it after the
	// frame has been delivered to every receiver (see Bus.complete). In
	// steady state a periodic sender allocates nothing. Scratch only —
	// never holds live payloads, so pooled resets leave it alone.
	dataFree [][]byte

	tec, rec int
	state    ControllerState

	// base is the post-construction snapshot recorded by markBaseline for
	// pooled reuse; see Bus.ResetToBaseline.
	base ctrlBaseline

	// Stats.
	FramesSent     sim.Counter
	FramesReceived sim.Counter
	FramesDropped  sim.Counter
	BusOffEvents   sim.Counter
}

// NewController creates a detached controller; attach it with Bus.Attach.
func NewController(name string) *Controller {
	return &Controller{Name: name}
}

// SetFilter installs the acceptance filter.
func (c *Controller) SetFilter(f AcceptanceFilter) { c.filter = f }

// OnReceive registers a handler invoked for every accepted frame.
func (c *Controller) OnReceive(fn ReceiveFunc) { c.handlers = append(c.handlers, fn) }

// State reports the fault-confinement state.
func (c *Controller) State() ControllerState { return c.state }

// Counters reports (TEC, REC).
func (c *Controller) Counters() (tec, rec int) { return c.tec, c.rec }

// txFront returns the head transmit request in place. Only valid while
// txLen > 0, and only until the next push/pop.
func (c *Controller) txFront() *txRequest { return &c.txBuf[c.txHead] }

// txPush appends a request, growing the ring when full.
func (c *Controller) txPush(tx txRequest) {
	if c.txLen == len(c.txBuf) {
		grown := make([]txRequest, max(8, 2*len(c.txBuf)))
		for i := 0; i < c.txLen; i++ {
			grown[i] = c.txBuf[(c.txHead+i)%len(c.txBuf)]
		}
		c.txBuf = grown
		c.txHead = 0
	}
	c.txBuf[(c.txHead+c.txLen)%len(c.txBuf)] = tx
	c.txLen++
}

// txPopFront removes the head request, clearing the slot so the ring
// retains neither payload nor callback.
func (c *Controller) txPopFront() {
	c.txBuf[c.txHead] = txRequest{}
	c.txHead = (c.txHead + 1) % len(c.txBuf)
	c.txLen--
}

// cloneData copies a payload into a recycled transmit buffer, falling
// back to a fresh allocation when the freelist is empty or too small.
func (c *Controller) cloneData(d []byte) []byte {
	if d == nil {
		return nil
	}
	if n := len(c.dataFree); n > 0 {
		buf := c.dataFree[n-1]
		c.dataFree[n-1] = nil
		c.dataFree = c.dataFree[:n-1]
		if cap(buf) >= len(d) {
			buf = buf[:len(d)]
			copy(buf, d)
			return buf
		}
	}
	return append([]byte(nil), d...)
}

// recycleData returns a delivered payload buffer to the freelist. Only
// the bus calls this, and only after every receiver callback has run —
// the payload contract is that frames are valid for the duration of the
// delivery callback, never beyond.
func (c *Controller) recycleData(d []byte) {
	if d == nil || len(c.dataFree) >= 16 {
		return
	}
	c.dataFree = append(c.dataFree, d[:0])
}

// txFlush drops every queued request (the bus-off transition).
func (c *Controller) txFlush() {
	for c.txLen > 0 {
		c.txPopFront()
	}
	c.txHead = 0
}

// Send validates and enqueues a frame for transmission. The optional done
// callback fires when the frame has been successfully put on the wire.
func (c *Controller) Send(f Frame, done func(at sim.Time)) error {
	if c.bus == nil {
		return errors.New("can: controller not attached to a bus")
	}
	if c.state == BusOff {
		return ErrBusOff
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if c.MaxQueue > 0 && c.txLen >= c.MaxQueue {
		c.FramesDropped.Inc()
		return ErrQueueFull
	}
	cp := f
	cp.Data = c.cloneData(f.Data)
	c.txPush(txRequest{frame: cp, done: done})
	c.bus.scheduleKick()
	return nil
}

// Reset returns a bus-off controller to error-active with cleared
// counters, modelling the application-commanded recovery sequence.
func (c *Controller) Reset() {
	c.tec, c.rec = 0, 0
	c.state = ErrorActive
	if c.bus != nil {
		c.bus.scheduleKick()
	}
}

func (c *Controller) deliver(at sim.Time, f *Frame, sender *Controller) {
	if c.filter != nil && !c.filter(f) {
		return
	}
	c.FramesReceived.Inc()
	c.decayREC()
	for _, h := range c.handlers {
		h(at, f, sender)
	}
}

func (c *Controller) bumpTEC(n int) {
	c.tec += n
	c.updateState()
}

func (c *Controller) bumpREC(n int) {
	c.rec += n
	if c.rec > 255 {
		c.rec = 255
	}
	c.updateState()
}

func (c *Controller) decayTEC() {
	if c.tec > 0 {
		c.tec--
	}
	c.updateState()
}

func (c *Controller) decayREC() {
	if c.rec > 0 {
		c.rec--
	}
	c.updateState()
}

func (c *Controller) updateState() {
	switch {
	case c.tec > 255:
		if c.state != BusOff {
			c.state = BusOff
			c.BusOffEvents.Inc()
			// Pending frames are lost on bus-off.
			c.FramesDropped.Add(int64(c.txLen))
			c.txFlush()
		}
	case c.tec > 127 || c.rec > 127:
		if c.state == ErrorActive {
			c.state = ErrorPassive
		}
	default:
		if c.state == ErrorPassive {
			c.state = ErrorActive
		}
	}
}

// PeriodicSender schedules frame transmissions with a fixed period and
// optional uniform jitter, modelling a cyclic application message. It
// returns a stop function.
func PeriodicSender(k *sim.Kernel, c *Controller, f Frame, period sim.Duration, jitterFrac float64) (stop func()) {
	if period <= 0 {
		panic("can: periodic sender requires positive period")
	}
	js := k.Stream("can.periodic." + c.Name + "." + fmt.Sprint(uint32(f.ID)))
	stopped := false
	var schedule func()
	schedule = func() {
		if stopped {
			return
		}
		_ = c.Send(f, nil) // queue-full / bus-off drops are recorded by the controller
		next := period
		if jitterFrac > 0 {
			next = js.Jitter(period, jitterFrac)
		}
		k.After(next, schedule)
	}
	k.After(js.Duration(0, period), schedule) // desynchronize start phases
	return func() { stopped = true }
}
