// Package ecu models an electronic control unit's processing resources:
// a single-core CPU with a preemptive fixed-priority scheduler running
// periodic control tasks and aperiodic jobs (e.g. per-frame CMAC
// computations), with deadline accounting.
//
// This is the substrate of the paper's real-time/security trade-off
// (Sections 5-6): adding message authentication spends CPU time that
// competes with control deadlines, and experiment E7 measures where
// software crypto breaks the schedule while a SHE accelerator does not.
package ecu

import (
	"errors"
	"fmt"
	"sort"

	"autosec/internal/sim"
)

// Task is a periodic workload description.
type Task struct {
	Name     string
	Period   sim.Duration
	WCET     sim.Duration // worst-case execution time, spent in full each job
	Deadline sim.Duration // relative; 0 means deadline = period
	Priority int          // lower value = higher priority

	Releases  sim.Counter
	Completes sim.Counter
	Misses    sim.Counter
	Response  sim.Summary // response times in ms
}

// job is one activation.
type job struct {
	task      *Task
	name      string
	priority  int
	released  sim.Time
	deadline  sim.Time // absolute; Never means none
	remaining sim.Duration
	seq       uint64
	onDone    func(at sim.Time, missed bool)
}

// CPU is a single-core preemptive fixed-priority processor.
type CPU struct {
	Name   string
	kernel *sim.Kernel

	ready      []*job
	running    *job
	runStart   sim.Time
	completion sim.Event
	seq        uint64

	busy      sim.Duration
	startedAt sim.Time

	JobsCompleted sim.Counter
	JobsMissed    sim.Counter
}

// NewCPU creates an idle CPU on the kernel.
func NewCPU(k *sim.Kernel, name string) *CPU {
	return &CPU{Name: name, kernel: k, startedAt: k.Now()}
}

// ResetState rewinds the CPU to its post-NewCPU idle state for pooled
// reuse: ready queue drained, running job dropped, accounting zeroed.
// The kernel must have been Reset first (periodic release events and
// pending completions are gone with the queue; the stale completion
// handle is inert by the kernel's generation discipline).
func (c *CPU) ResetState() {
	for i := range c.ready {
		c.ready[i] = nil
	}
	c.ready = c.ready[:0]
	c.running = nil
	c.runStart = 0
	c.completion = sim.Event{}
	c.seq = 0
	c.busy = 0
	c.startedAt = c.kernel.Now()
	c.JobsCompleted.Value = 0
	c.JobsMissed.Value = 0
}

// Utilization reports the busy fraction of elapsed virtual time.
func (c *CPU) Utilization() float64 {
	elapsed := c.kernel.Now() - c.startedAt
	if elapsed <= 0 {
		return 0
	}
	b := c.busy
	if c.running != nil {
		b += c.kernel.Now() - c.runStart
	}
	return float64(b) / float64(elapsed)
}

// Pending reports queued plus running jobs.
func (c *CPU) Pending() int {
	n := len(c.ready)
	if c.running != nil {
		n++
	}
	return n
}

// Errors.
var ErrBadTask = errors.New("ecu: task needs positive period and WCET")

// AddTask starts releasing a periodic task. Release phase starts at the
// current time.
func (c *CPU) AddTask(t *Task) (stop func(), err error) {
	if t.Period <= 0 || t.WCET <= 0 {
		return nil, fmt.Errorf("%w: %s", ErrBadTask, t.Name)
	}
	rel := t.Deadline
	if rel == 0 {
		rel = t.Period
	}
	return c.kernel.Every(c.kernel.Now(), t.Period, func() {
		t.Releases.Inc()
		c.submit(&job{
			task:      t,
			name:      t.Name,
			priority:  t.Priority,
			released:  c.kernel.Now(),
			deadline:  c.kernel.Now() + rel,
			remaining: t.WCET,
		})
	}), nil
}

// Submit queues a one-shot job. deadline 0 means none. onDone may be nil.
func (c *CPU) Submit(name string, wcet sim.Duration, deadline sim.Duration, priority int, onDone func(at sim.Time, missed bool)) error {
	if wcet <= 0 {
		return fmt.Errorf("%w: job %s", ErrBadTask, name)
	}
	abs := sim.Never
	if deadline > 0 {
		abs = c.kernel.Now() + deadline
	}
	c.submit(&job{
		name:      name,
		priority:  priority,
		released:  c.kernel.Now(),
		deadline:  abs,
		remaining: wcet,
		onDone:    onDone,
	})
	return nil
}

func (c *CPU) submit(j *job) {
	j.seq = c.seq
	c.seq++
	c.ready = append(c.ready, j)
	c.reschedule()
}

// higher reports whether a should run before b.
func higher(a, b *job) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	if a.released != b.released {
		return a.released < b.released
	}
	return a.seq < b.seq
}

// reschedule enforces that the highest-priority ready job runs.
func (c *CPU) reschedule() {
	if len(c.ready) == 0 {
		return
	}
	sort.SliceStable(c.ready, func(i, j int) bool { return higher(c.ready[i], c.ready[j]) })
	top := c.ready[0]
	if c.running != nil {
		if !higher(top, c.running) {
			return // current job keeps the core
		}
		// Preempt: bank progress and requeue.
		now := c.kernel.Now()
		c.running.remaining -= now - c.runStart
		c.busy += now - c.runStart
		c.kernel.Cancel(c.completion)
		if c.running.remaining > 0 {
			c.ready = append(c.ready, c.running)
			sort.SliceStable(c.ready, func(i, j int) bool { return higher(c.ready[i], c.ready[j]) })
		}
		c.running = nil
	}
	c.dispatch()
}

// dispatch starts the head of the ready queue.
func (c *CPU) dispatch() {
	if c.running != nil || len(c.ready) == 0 {
		return
	}
	j := c.ready[0]
	c.ready = c.ready[1:]
	c.running = j
	c.runStart = c.kernel.Now()
	c.completion = c.kernel.After(j.remaining, func() { c.complete(j) })
}

func (c *CPU) complete(j *job) {
	now := c.kernel.Now()
	c.busy += now - c.runStart
	c.running = nil
	c.completion = sim.Event{}

	missed := j.deadline != sim.Never && now > j.deadline
	c.JobsCompleted.Inc()
	if missed {
		c.JobsMissed.Inc()
	}
	if j.task != nil {
		j.task.Completes.Inc()
		if missed {
			j.task.Misses.Inc()
		}
		j.task.Response.Observe((now - j.released).Millis())
	}
	if j.onDone != nil {
		j.onDone(now, missed)
	}
	c.dispatch()
}
