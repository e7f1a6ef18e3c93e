// Conservative discrete-event simulation over partitioned models: a
// KernelGroup runs several Kernels — one per model partition, e.g. one
// per vehicle zone — under a shared lookahead, keeping the overall event
// order byte-deterministic.
//
// The synchronization protocol is windowed conservative PDES (the
// bounded-lag / YAWNS family). The group owns a positive lookahead L:
// the minimum virtual-time distance any cross-member interaction must
// travel (for zonal vehicles, the backbone's encapsulation + switch-hop
// latency — no frame can cross zones faster). Each round:
//
//  1. Horizon: m = min over members of NextEventTime(). The window is
//     [m, m+L): no member can receive anything new below m+L, because a
//     message sent by an event at time t >= m arrives at t+L >= m+L.
//  2. Dispatch: every member drains its events with deadline < m+L, in
//     member-index order on the calling goroutine. Members never touch
//     each other's state directly; cross-member effects go through Send,
//     which buffers a timestamped message on the *sender*.
//  3. Barrier: buffered messages flush into the receiving kernels in a
//     fixed order — receiver index, then sender index, then send order —
//     so tie-breaking at equal deadlines never depends on which member
//     dispatched first.
//
// Deadlock freedom is structural: there are no pairwise channel
// dependencies to cycle on, only the global barrier, and every round
// dispatches at least the event at m (L > 0), so virtual time strictly
// advances while any events remain.
//
// Determinism: the window bound depends only on queue state, each
// member's in-window dispatch order is its own (when, seq) heap order,
// and the flush order is fixed — so the group's state evolution is a
// pure function of (seed, model).
package sim

import "fmt"

// xMsg is one inter-kernel message: a callback to inject into the
// receiving kernel at an absolute deadline.
type xMsg struct {
	at Time
	fn func()
}

// groupMember pairs a kernel with its outgoing mailboxes.
type groupMember struct {
	k *Kernel
	// out[d] buffers messages addressed to member d, in send order.
	// Only this member's events (or setup code between runs) append;
	// only the barrier drains, keeping the backing array for the next
	// round.
	out [][]xMsg
}

// KernelGroup synchronizes a set of Kernels under a shared lookahead.
// Construct with NewKernelGroup; create members with Kernel(i). Topology
// (members, barrier hooks) may only change between runs.
type KernelGroup struct {
	seed      uint64
	lookahead Duration
	members   []*groupMember
	barrier   []func(limit Time)
	halted    bool
	// sent counts the messages buffered since the last flush, so a round
	// that crossed no member skips the mailbox sweep.
	sent int
}

// NewKernelGroup creates an empty group. lookahead is the minimum
// virtual-time distance of every cross-member message and must be
// positive — it is what lets each member dispatch a whole window before
// the barrier.
func NewKernelGroup(seed uint64, lookahead Duration) *KernelGroup {
	if lookahead <= 0 {
		panic("sim: KernelGroup needs a positive lookahead")
	}
	return &KernelGroup{seed: seed, lookahead: lookahead}
}

// Kernel returns member i's kernel, creating members up to index i on
// first use. Member seeds derive from the group seed and the index, so
// the same (seed, index) always yields the same stream state regardless
// of how many members exist. Must not be called while a run is in
// progress.
func (g *KernelGroup) Kernel(i int) *Kernel {
	if i < 0 {
		panic("sim: negative kernel-group member index")
	}
	for len(g.members) <= i {
		idx := len(g.members)
		g.members = append(g.members, &groupMember{k: NewKernel(ChildSeed(g.seed, idx))})
	}
	for _, m := range g.members {
		for len(m.out) < len(g.members) {
			m.out = append(m.out, nil)
		}
	}
	return g.members[i].k
}

// Members reports how many member kernels exist.
func (g *KernelGroup) Members() int { return len(g.members) }

// Lookahead reports the group's cross-member lookahead.
func (g *KernelGroup) Lookahead() Duration { return g.lookahead }

// Steps reports the total events dispatched across all members.
func (g *KernelGroup) Steps() uint64 {
	var n uint64
	for _, m := range g.members {
		n += m.k.Steps()
	}
	return n
}

// Pending reports the total queued events across all members.
func (g *KernelGroup) Pending() int {
	n := 0
	for _, m := range g.members {
		n += m.k.Pending()
	}
	return n
}

// AtBarrier registers a hook the group runs after every round's flush,
// with the round's window limit. Hooks are where cross-member state
// merges (e.g. the vehicle audit chain): no member window is in flight
// while they run.
func (g *KernelGroup) AtBarrier(fn func(limit Time)) {
	g.barrier = append(g.barrier, fn)
}

// Send buffers a cross-member message: fn will run on member to's
// kernel at absolute time at. It must be called either from an event
// executing on member from's kernel, or between runs; at must be at
// least from's current time plus the group lookahead — violating that
// would let a message land inside a window another member already
// dispatched, so it panics (it always indicates a model bug, exactly
// like Kernel.At in the past).
//
// fn runs as an event on the receiving kernel; to stay allocation-free,
// senders should prebind fn once and reuse it (see the pooled message
// nodes in internal/zonal's partitioned backbone).
func (g *KernelGroup) Send(from, to int, at Time, fn func()) {
	s := g.members[from]
	if to < 0 || to >= len(g.members) {
		panic(fmt.Sprintf("sim: inter-kernel send to unknown member %d", to))
	}
	if at < s.k.now+g.lookahead {
		panic(fmt.Sprintf("sim: inter-kernel message at %v from member %d at %v violates lookahead %v",
			at, from, s.k.now, g.lookahead))
	}
	s.out[to] = append(s.out[to], xMsg{at: at, fn: fn})
	g.sent++
}

// flush injects every buffered message into its receiving kernel, in
// (receiver index, sender index, send order) — the fixed tie-break that
// makes rounds independent of member dispatch order — and empties the
// mailboxes. Each callback is dropped as it is injected: a clear of the
// box would cost a runtime call per mailbox per round.
func (g *KernelGroup) flush() {
	if g.sent == 0 {
		return
	}
	g.sent = 0
	for di, dst := range g.members {
		for _, src := range g.members {
			box := src.out[di]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				dst.k.At(box[i].at, box[i].fn)
				box[i].fn = nil
			}
			src.out[di] = box[:0]
		}
	}
}

// round dispatches one window on every member, in index order, and
// reports false if any member halted mid-window.
func (g *KernelGroup) round(limit Time) bool {
	ok := true
	for _, m := range g.members {
		if !m.k.DispatchBefore(limit) {
			ok = false
		}
	}
	return ok
}

// Run dispatches rounds until every member's queue drains. A member
// kernel's Halt stops the group at the round boundary with ErrHalted.
func (g *KernelGroup) Run() error { return g.run(0, true) }

// RunUntil dispatches rounds until no member has an event with deadline
// <= t, then sets every member's clock to t — the group analogue of
// Kernel.RunUntil. Returns ErrHalted if halted early.
func (g *KernelGroup) RunUntil(t Time) error { return g.run(t, false) }

func (g *KernelGroup) run(until Time, drain bool) error {
	g.halted = false
	if len(g.members) == 0 {
		return nil
	}
	// Deliver messages buffered between runs (setup-time Sends) so the
	// first horizon sees them.
	g.flush()
	for !g.halted {
		m := Never
		for _, mb := range g.members {
			if nt := mb.k.NextEventTime(); nt < m {
				m = nt
			}
		}
		if m == Never || (!drain && m > until) {
			break
		}
		limit := m + g.lookahead
		if limit < m { // overflow near Never
			limit = Never
		}
		if !drain {
			end := until
			if end != Never {
				end++ // events at exactly `until` belong to the run
			}
			if limit > end {
				limit = end
			}
		}
		ok := g.round(limit)
		g.flush()
		for _, fn := range g.barrier {
			fn(limit)
		}
		if !ok {
			g.halted = true
		}
	}
	if g.halted {
		return ErrHalted
	}
	if !drain {
		for _, mb := range g.members {
			if until > mb.k.now {
				mb.k.now = until
			}
		}
	}
	return nil
}

// Reset rewinds every member kernel to time zero under seeds derived
// from the new group seed, drops any undelivered cross-member messages,
// and clears the halt flag. Barrier hooks are construction wiring and
// survive — the group analogue of Kernel.Reset, and what
// core.VehiclePool leans on to recycle per-zone-kernel vehicles.
func (g *KernelGroup) Reset(seed uint64) {
	g.seed = seed
	g.halted = false
	g.sent = 0
	for i, m := range g.members {
		m.k.Reset(ChildSeed(seed, i))
		for d, box := range m.out {
			clear(box)
			m.out[d] = box[:0]
		}
	}
}
