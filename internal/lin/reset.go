package lin

// Pooled-vehicle lifecycle support. MarkBaseline snapshots the cluster's
// post-construction wiring — slaves with their publishers/subscriptions,
// intruders, schedule, observers, the error model — and ResetToBaseline
// rewinds to it so a pooled cluster behaves exactly like a fresh one:
// scenario slaves, intrusions and schedule entries are dropped, the
// master stops, counters zero. The error stream is kernel-owned and is
// reseeded by Kernel.Reset.

// slaveBaseline is the sealed post-construction state of one Slave.
type slaveBaseline struct {
	pubs map[FrameID]PublishFunc
	subs map[FrameID]int // per-ID subscription counts
}

// linBaseline is the sealed post-construction state of a Cluster.
type linBaseline struct {
	sealed    bool
	slaves    []slaveBaseline
	intruders map[FrameID]PublishFunc
	schedule  []ScheduleEntry
	observers int
	corrupt   float64
}

// MarkBaseline records the cluster's current wiring as the reset target.
func (c *Cluster) MarkBaseline() {
	b := linBaseline{
		sealed:    true,
		slaves:    make([]slaveBaseline, len(c.slaves)),
		intruders: make(map[FrameID]PublishFunc, len(c.intruders)),
		schedule:  c.schedule,
		observers: len(c.observers),
		corrupt:   c.CorruptResponse,
	}
	for id, fn := range c.intruders {
		b.intruders[id] = fn
	}
	for i, s := range c.slaves {
		sb := slaveBaseline{
			pubs: make(map[FrameID]PublishFunc, len(s.publishers)),
			subs: make(map[FrameID]int, len(s.subs)),
		}
		for id, fn := range s.publishers {
			sb.pubs[id] = fn
		}
		for id, fns := range s.subs {
			sb.subs[id] = len(fns)
		}
		b.slaves[i] = sb
	}
	c.base = b
}

// ResetToBaseline rewinds the cluster to its MarkBaseline snapshot. The
// kernel must have been Reset first: pending schedule slots and transfers
// are gone with the queue, so every pooled node returns to its free list.
func (c *Cluster) ResetToBaseline() {
	if !c.base.sealed {
		panic("lin: ResetToBaseline before MarkBaseline")
	}
	c.freeSteps = append(c.freeSteps[:0], c.steps...)
	c.freeTransfers = append(c.freeTransfers[:0], c.transfers...)
	for i := len(c.base.slaves); i < len(c.slaves); i++ {
		c.slaves[i] = nil
	}
	c.slaves = c.slaves[:len(c.base.slaves)]
	for i, s := range c.slaves {
		sb := &c.base.slaves[i]
		for id := range s.publishers {
			if _, keep := sb.pubs[id]; !keep {
				delete(s.publishers, id)
			}
		}
		for id, fn := range sb.pubs {
			s.publishers[id] = fn
		}
		for id, fns := range s.subs {
			keep, ok := sb.subs[id]
			if !ok {
				delete(s.subs, id)
				continue
			}
			for j := keep; j < len(fns); j++ {
				fns[j] = nil
			}
			s.subs[id] = fns[:keep]
		}
	}
	for id := range c.intruders {
		delete(c.intruders, id)
	}
	for id, fn := range c.base.intruders {
		c.intruders[id] = fn
	}
	c.schedule = c.base.schedule
	c.running = false
	c.stopped = false
	c.ResponseCollisions.Value = 0
	c.FramesOK.Value = 0
	c.NoResponse.Value = 0
	c.ChecksumErrors.Value = 0
	c.CorruptResponse = c.base.corrupt
	for i := c.base.observers; i < len(c.observers); i++ {
		c.observers[i] = nil
	}
	c.observers = c.observers[:c.base.observers]
}
