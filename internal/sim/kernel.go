// Package sim provides the discrete-event simulation kernel that underlies
// every timed subsystem in autosec: in-vehicle networks, ECU schedulers,
// the V2X field model, OTA campaigns and drive cycles.
//
// The kernel is deliberately minimal: a virtual clock in nanoseconds, an
// event queue with deterministic tie-breaking, and named deterministic
// random streams. Nothing in the library reads the wall clock; two runs
// with the same scenario seed produce identical traces.
//
// The hot path is allocation-free in steady state: the queue is a concrete
// 4-ary min-heap over event nodes (no interface boxing), and dispatched or
// cancelled nodes return to a kernel-owned free list, so a
// schedule→dispatch→recycle cycle touches no allocator once the heap and
// free list are warm. Event handles carry a generation counter, so a
// handle to an event whose node has since been recycled is inert: Cancel
// on it is a no-op and can never affect the node's new occupant.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration constants but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string { return string(t.AppendTo(nil)) }

// exactTimeLimit bounds the times AppendTo renders from integer
// nanoseconds: below it the float64 quotient that %.6f/%.3f round is
// within half a unit of the last printed digit of the exact value, so
// integer rounding agrees with the float rendering unless the exact value
// is a tie.
const exactTimeLimit = 1 << 52

// AppendTo appends String's rendering of t to dst: seconds with six
// decimals, milliseconds or microseconds with three, or integer
// nanoseconds, whichever is the largest unit |t| reaches. Digits come from
// the integer nanoseconds; where rounding the exact value can disagree with
// rounding its float64 quotient (a tie — a remainder of exactly 500 ns — or
// |t| at or above 2^52 ns), the float is formatted instead.
func (t Time) AppendTo(dst []byte) []byte {
	var unit Time
	var suffix string
	var prec int
	switch {
	case t == Never:
		return append(dst, "never"...)
	case t >= Second || t <= -Second:
		unit, suffix, prec = Second, "s", 6
	case t >= Millisecond || t <= -Millisecond:
		unit, suffix, prec = Millisecond, "ms", 3
	case t >= Microsecond || t <= -Microsecond:
		unit, suffix, prec = Microsecond, "us", 3
	default:
		return append(strconv.AppendInt(dst, int64(t), 10), "ns"...)
	}
	scale := uint64(1000) // 10^prec
	if prec == 6 {
		scale = 1000000
	}
	// step is the time the last printed digit stands for: 1 us for
	// seconds and milliseconds, 1 ns for microseconds.
	step := uint64(unit) / scale
	u := uint64(t)
	if t < 0 {
		u = uint64(-t)
	}
	q, r := u/step, u%step
	if t >= exactTimeLimit || t <= -exactTimeLimit || (step > 1 && r == step/2) {
		dst = strconv.AppendFloat(dst, float64(t)/float64(unit), 'f', prec, 64)
		return append(dst, suffix...)
	}
	if r > step/2 {
		q++
	}
	if t < 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/scale, 10)
	dst = append(dst, '.')
	for d := scale / 10; d > 0; d /= 10 {
		dst = append(dst, byte('0'+q/d%10))
	}
	return append(dst, suffix...)
}

// eventNode is the kernel-owned storage for one scheduled callback. Nodes
// are pooled: after dispatch (or after a cancelled node is reclaimed from
// the queue) the node's generation is bumped and it returns to the free
// list for the next schedule.
type eventNode struct {
	when   Time
	seq    uint64 // tie-break: FIFO among equal deadlines
	fn     func()
	gen    uint64 // incremented on recycle; invalidates outstanding handles
	cancel bool
}

// Event is a handle to a scheduled callback. The callback runs exactly
// once, at its deadline, unless cancelled first. The zero Event is valid
// and refers to nothing.
//
// Handles are values, not references: once the event has run (or a
// cancelled event's slot has been reclaimed) the handle goes stale, and a
// stale handle is inert — Cancel through it is a no-op and Cancelled
// reports false.
type Event struct {
	node *eventNode
	gen  uint64
}

// Cancelled reports whether the event is currently cancelled and still
// queued. Once the kernel reclaims the node (the event ran, or a
// cancelled slot was recycled) the handle is stale and Cancelled reports
// false.
func (e Event) Cancelled() bool {
	return e.node != nil && e.node.gen == e.gen && e.node.cancel
}

// ErrHalted is returned by Run variants when Halt stopped the simulation.
var ErrHalted = errors.New("sim: halted")

// TraceSink receives one callback per dispatched event. It is the
// kernel's observability hook: internal/obs.Tracer implements it, but the
// kernel depends only on this interface so sim stays import-free.
// Implementations must not schedule or cancel events from the callback.
type TraceSink interface {
	// KernelDispatch is called as each event fires, with the event's
	// deadline (the new kernel time) and the post-dispatch pending count.
	KernelDispatch(at Time, pending int)
}

// Kernel is a discrete-event simulator. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now     Time
	queue   []*eventNode // 4-ary min-heap ordered by (when, seq)
	free    []*eventNode // recycled nodes ready for the next schedule
	seq     uint64
	pending int // live (non-cancelled) queued events, maintained incrementally
	halted  bool
	stepped uint64
	seed    uint64
	streams map[string]*Stream
	trace   TraceSink // nil when tracing is off (the common case)

	// periodics holds every periodic node the kernel ever made; the first
	// livePeriodics are in use by this run's Every calls, the rest are
	// idle. Reset returns them all.
	periodics     []*periodic
	livePeriodics int
}

// periodic is the kernel-owned state of one Every stream. Its tick is
// bound once, when the node is made, so a recycled node reschedules
// without allocating. gen counts the node's recycles: a stop handle
// carries the generation it was issued under and is inert once the node
// serves another stream.
type periodic struct {
	k       *Kernel
	fn      func()
	period  Duration
	ev      Event
	gen     uint64
	stopped bool
	tick    func()
}

func (p *periodic) fire() {
	if p.stopped {
		return
	}
	p.fn()
	p.ev = p.k.At(p.k.now+p.period, p.tick)
}

// stop ends the stream if the handle's generation is still current.
func (p *periodic) stop(gen uint64) {
	if p.gen != gen {
		return
	}
	p.stopped = true
	p.fn = nil // release the callback's captures
	p.k.Cancel(p.ev)
}

// NewKernel returns a kernel at time zero whose named random streams are
// derived from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{seed: seed, streams: make(map[string]*Stream)}
}

// Reset rewinds the kernel to its post-NewKernel state under a new seed
// without discarding the node pool: queued events are recycled into the
// free list, the clock returns to zero, and every named stream is
// re-derived in place (subsystems cache *Stream pointers, so the stream
// objects must survive). After Reset the kernel is indistinguishable —
// event sequencing included — from NewKernel(seed), except that the heap,
// the free list and the periodic nodes stay warm. Every periodic node is
// recycled, so stop handles issued before Reset become inert. Like a new
// kernel, it has no trace sink.
func (k *Kernel) Reset(seed uint64) {
	for _, n := range k.queue {
		k.recycle(n)
	}
	k.queue = k.queue[:0]
	for _, p := range k.periodics[:k.livePeriodics] {
		p.fn = nil // release the callback's captures
		p.ev = Event{}
		p.gen++
	}
	k.livePeriodics = 0
	k.now = 0
	k.seq = 0
	k.pending = 0
	k.halted = false
	k.stepped = 0
	k.seed = seed
	for name, s := range k.streams {
		s.Reseed(seed, name)
	}
	k.trace = nil
}

// SetTraceSink attaches (or, with nil, detaches) a per-dispatch trace
// sink. The disabled path is a single nil check in step; see
// TestKernelSteadyStateAllocs for the zero-cost guarantee.
func (k *Kernel) SetTraceSink(s TraceSink) { k.trace = s }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Steps reports how many events have been dispatched so far.
func (k *Kernel) Steps() uint64 { return k.stepped }

// Pending reports the number of queued (non-cancelled) events. O(1): the
// count is maintained on schedule, cancel and dispatch.
func (k *Kernel) Pending() int { return k.pending }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it always indicates a model bug.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	n := k.alloc()
	n.when = t
	n.seq = k.seq
	n.fn = fn
	n.cancel = false
	k.seq++
	k.push(n)
	k.pending++
	return Event{node: n, gen: n.gen}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn to run every period, starting at start, until the
// returned stop function is called. fn observes the kernel time. The
// stream runs on a kernel-owned periodic node, recycled by Reset, so on
// a warm kernel a call allocates only its stop handle. Calling stop
// again, or after Reset, is a no-op.
func (k *Kernel) Every(start Time, period Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	if k.livePeriodics == len(k.periodics) {
		p := &periodic{k: k}
		p.tick = p.fire
		k.periodics = append(k.periodics, p)
	}
	p := k.periodics[k.livePeriodics]
	k.livePeriodics++
	p.fn, p.period, p.stopped = fn, period, false
	p.ev = k.At(start, p.tick)
	gen := p.gen
	return func() { p.stop(gen) }
}

// Cancel prevents a scheduled event from running. Safe to call on the
// zero handle, on handles whose event already ran, and on handles that
// went stale after their node was recycled (all no-ops).
func (k *Kernel) Cancel(e Event) {
	n := e.node
	if n == nil || n.gen != e.gen || n.cancel {
		return
	}
	n.cancel = true
	k.pending--
}

// Halt stops the current Run/RunUntil after the current event returns.
func (k *Kernel) Halt() { k.halted = true }

// alloc takes a node from the free list, or mints one when the pool is
// dry (cold start, or queue growth beyond any previous depth).
func (k *Kernel) alloc() *eventNode {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &eventNode{}
}

// recycle invalidates outstanding handles to n and returns it to the pool.
func (k *Kernel) recycle(n *eventNode) {
	n.fn = nil // release the callback's captures
	n.gen++
	k.free = append(k.free, n)
}

// less orders nodes by (when, seq): earliest deadline first, FIFO among
// equal deadlines.
func less(a, b *eventNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push inserts n into the 4-ary heap.
func (k *Kernel) push(n *eventNode) {
	k.queue = append(k.queue, n)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the heap minimum. The queue must be non-empty.
func (k *Kernel) pop() *eventNode {
	q := k.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	k.queue = q
	// Sift the displaced tail node down among up to four children.
	i := 0
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		end := c + 4
		if end > len(q) {
			end = len(q)
		}
		best := c
		for j := c + 1; j < end; j++ {
			if less(q[j], q[best]) {
				best = j
			}
		}
		if !less(q[best], q[i]) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// step dispatches the next event. Reports false when the queue is empty.
func (k *Kernel) step() bool {
	for len(k.queue) > 0 {
		n := k.pop()
		if n.cancel {
			k.recycle(n)
			continue
		}
		k.now = n.when
		k.stepped++
		k.pending--
		if k.trace != nil {
			k.trace.KernelDispatch(n.when, k.pending)
		}
		fn := n.fn
		k.recycle(n)
		fn()
		return true
	}
	return false
}

// Run dispatches events until the queue drains or Halt is called.
// It returns ErrHalted if halted, nil otherwise.
func (k *Kernel) Run() error {
	k.halted = false
	for !k.halted {
		if !k.step() {
			return nil
		}
	}
	return ErrHalted
}

// RunUntil dispatches events with deadline ≤ t, then sets the clock to t.
// It returns ErrHalted if halted early, nil otherwise.
func (k *Kernel) RunUntil(t Time) error {
	k.halted = false
	for !k.halted {
		next := k.peek()
		if next == nil || next.when > t {
			break
		}
		k.step()
	}
	if k.halted {
		return ErrHalted
	}
	if t > k.now {
		k.now = t
	}
	return nil
}

// DispatchBefore dispatches every pending event with deadline strictly
// before limit, in (when, seq) order, leaving the clock at the last
// dispatched deadline — it never jumps the clock forward to limit. This
// is the window primitive KernelGroup's conservative rounds are built
// on: the group computes a safe horizon and each member drains exactly
// the events below it. Reports false when Halt stopped the dispatch
// before the window was drained.
func (k *Kernel) DispatchBefore(limit Time) bool {
	k.halted = false
	for {
		n := k.peek()
		if n == nil || n.when >= limit {
			return true
		}
		k.step()
		if k.halted {
			return false
		}
	}
}

// peek returns the earliest non-cancelled node without dispatching it,
// reclaiming any cancelled nodes it skips over.
func (k *Kernel) peek() *eventNode {
	for len(k.queue) > 0 {
		n := k.queue[0]
		if !n.cancel {
			return n
		}
		k.recycle(k.pop())
	}
	return nil
}

// NextEventTime reports the deadline of the earliest pending event, or
// Never when the queue is empty.
func (k *Kernel) NextEventTime() Time {
	e := k.peek()
	if e == nil {
		return Never
	}
	return e.when
}

// Stream returns the named deterministic random stream, creating it on
// first use. Distinct names yield statistically independent streams, and
// the same (seed, name) pair always yields the same sequence, so adding a
// new consumer never perturbs existing ones.
func (k *Kernel) Stream(name string) *Stream {
	s, ok := k.streams[name]
	if !ok {
		s = NewStream(k.seed, name)
		k.streams[name] = s
	}
	return s
}
