package flexray

// Pooled-vehicle lifecycle support. MarkBaseline snapshots the cluster's
// post-construction wiring — static slot ownership, intruders, receivers —
// and ResetToBaseline rewinds to it: scenario assignments and intrusions
// drop, the dynamic queue drains, the cycle counter rewinds and the
// cluster stops (Start is explicit, exactly as after NewCluster).

// frBaseline is the sealed post-construction state of a Cluster.
type frBaseline struct {
	sealed    bool
	static    []*slotAssignment
	intruders []int // per-slot intruder counts
	receivers int
}

// MarkBaseline records the cluster's current wiring as the reset target.
func (c *Cluster) MarkBaseline() {
	b := frBaseline{
		sealed:    true,
		static:    append([]*slotAssignment(nil), c.static...),
		intruders: make([]int, len(c.intruders)),
		receivers: len(c.receivers),
	}
	for i, as := range c.intruders {
		b.intruders[i] = len(as)
	}
	c.base = b
}

// ResetToBaseline rewinds the cluster to its MarkBaseline snapshot. The
// kernel must have been Reset first (pending cycle events are gone with
// the queue).
func (c *Cluster) ResetToBaseline() {
	if !c.base.sealed {
		panic("flexray: ResetToBaseline before MarkBaseline")
	}
	copy(c.static, c.base.static)
	for i, as := range c.intruders {
		keep := c.base.intruders[i]
		clear(as[keep:])
		c.intruders[i] = as[:keep]
	}
	c.dynamic = nil
	for i := c.base.receivers; i < len(c.receivers); i++ {
		c.receivers[i] = nil
	}
	c.receivers = c.receivers[:c.base.receivers]
	c.cycle = 0
	c.running = false
	c.stopped = false
	c.FramesOK.Value = 0
	c.NullFrames.Value = 0
	c.Collisions.Value = 0
	c.DynSent.Value = 0
	c.DynStarved.Value = 0
}
