package can

// Pooled-vehicle lifecycle support: MarkBaseline snapshots the bus's
// post-construction wiring (attached controllers, sniffers, error model)
// and ResetToBaseline rewinds every piece of run state back to that
// snapshot without reallocating, so a bus inside a pooled core.Vehicle is
// indistinguishable from a freshly built one. This is the PR-2 event-node
// discipline applied one layer up: construction wiring is permanent,
// everything a scenario touches is truncated or zeroed.

// busBaseline is the sealed post-construction state of a Bus.
type busBaseline struct {
	sealed      bool
	controllers int
	sniffers    int
	ber         float64
	targeted    func(f *Frame, sender *Controller) bool
	dataBitrate int64
}

// ctrlBaseline is the sealed post-construction state of a Controller.
type ctrlBaseline struct {
	sealed   bool
	handlers int
	filter   AcceptanceFilter
	maxQueue int
}

// MarkBaseline records the bus's current wiring as the reset target.
// Call once, at the end of construction; ResetToBaseline rewinds to this
// exact point. Controllers attached afterwards are dropped on reset.
func (b *Bus) MarkBaseline() {
	b.base = busBaseline{
		sealed:      true,
		controllers: len(b.controllers),
		sniffers:    len(b.sniffers),
		ber:         b.BitErrorRate,
		targeted:    b.TargetedError,
		dataBitrate: b.dataBitrate,
	}
	for _, c := range b.controllers {
		c.markBaseline()
	}
}

// ResetToBaseline rewinds the bus to its MarkBaseline snapshot: scenario
// controllers and sniffers are detached, kept controllers flushed, the
// error model and all counters restored, and the tracer detached. The
// metric bindings stay: the bus keeps feeding the registry it was last
// Instrument-ed into, whose probes read this same object. The kernel
// must have been Reset first (startedAt re-anchors to Now).
func (b *Bus) ResetToBaseline() {
	if !b.base.sealed {
		panic("can: ResetToBaseline before MarkBaseline")
	}
	for i := b.base.controllers; i < len(b.controllers); i++ {
		b.controllers[i].bus = nil
		b.controllers[i] = nil
	}
	b.controllers = b.controllers[:b.base.controllers]
	for _, c := range b.controllers {
		c.resetToBaseline()
	}
	for i := b.base.sniffers; i < len(b.sniffers); i++ {
		b.sniffers[i] = nil
	}
	b.sniffers = b.sniffers[:b.base.sniffers]

	b.busy = false
	b.busyUntil = 0
	b.kickPending = false
	b.txSender = nil
	b.txDur = 0
	b.txBits = 0
	b.txScratch = txRequest{}
	b.BitErrorRate = b.base.ber
	b.TargetedError = b.base.targeted
	b.dataBitrate = b.base.dataBitrate
	b.pokBER = 0
	b.pokTab = b.pokTab[:0]
	b.FramesOK.Value = 0
	b.FramesErrored.Value = 0
	b.BitsOnWire = 0
	b.busyTime = 0
	b.startedAt = b.kernel.Now()

	b.obsTr = nil
	b.obsSub, b.obsTx, b.obsTxErr, b.obsBus = 0, 0, 0, 0
}

// markBaseline seals the controller's construction-time wiring.
func (c *Controller) markBaseline() {
	c.base = ctrlBaseline{
		sealed:   true,
		handlers: len(c.handlers),
		filter:   c.filter,
		maxQueue: c.MaxQueue,
	}
}

// resetToBaseline rewinds the controller: TX ring flushed, scenario
// handlers dropped, fault-confinement state back to error-active.
func (c *Controller) resetToBaseline() {
	c.txFlush()
	for i := c.base.handlers; i < len(c.handlers); i++ {
		c.handlers[i] = nil
	}
	c.handlers = c.handlers[:c.base.handlers]
	c.filter = c.base.filter
	c.MaxQueue = c.base.maxQueue
	c.tec, c.rec = 0, 0
	c.state = ErrorActive
	c.FramesSent.Value = 0
	c.FramesReceived.Value = 0
	c.FramesDropped.Value = 0
	c.BusOffEvents.Value = 0
}
