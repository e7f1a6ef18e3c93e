package ecu

import (
	"math"
	"testing"

	"autosec/internal/sim"
)

func TestSingleTaskMeetsDeadlines(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	task := &Task{Name: "control", Period: 10 * sim.Millisecond, WCET: 2 * sim.Millisecond}
	stop, err := c.AddTask(task)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.RunUntil(sim.Second)
	stop()
	if task.Releases.Value < 99 || task.Misses.Value != 0 {
		t.Fatalf("releases=%d misses=%d", task.Releases.Value, task.Misses.Value)
	}
	// Response time equals WCET with no contention.
	if r := task.Response.Mean(); math.Abs(r-2) > 0.01 {
		t.Fatalf("mean response %.3f ms", r)
	}
	// Utilization ~20%.
	if u := c.Utilization(); u < 0.18 || u > 0.22 {
		t.Fatalf("utilization %.3f", u)
	}
}

func TestPreemptionByHigherPriority(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	hi := &Task{Name: "hi", Period: 10 * sim.Millisecond, WCET: 3 * sim.Millisecond, Priority: 0}
	lo := &Task{Name: "lo", Period: 50 * sim.Millisecond, WCET: 20 * sim.Millisecond, Priority: 1}
	s1, _ := c.AddTask(hi)
	s2, _ := c.AddTask(lo)
	_ = k.RunUntil(sim.Second)
	s1()
	s2()
	// hi always meets its deadline despite lo's long jobs.
	if hi.Misses.Value != 0 {
		t.Fatalf("hi misses=%d", hi.Misses.Value)
	}
	// lo is preempted: its response exceeds its WCET.
	if lo.Response.Mean() <= 20 {
		t.Fatalf("lo mean response %.3f ms — no preemption visible", lo.Response.Mean())
	}
	// Total utilization = 0.3 + 0.4 = 0.7, schedulable; lo completes all.
	if lo.Misses.Value != 0 {
		t.Fatalf("lo misses=%d", lo.Misses.Value)
	}
}

func TestOverloadMissesDeadlines(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	a := &Task{Name: "a", Period: 10 * sim.Millisecond, WCET: 7 * sim.Millisecond, Priority: 0}
	b := &Task{Name: "b", Period: 10 * sim.Millisecond, WCET: 7 * sim.Millisecond, Priority: 1}
	s1, _ := c.AddTask(a)
	s2, _ := c.AddTask(b)
	_ = k.RunUntil(sim.Second)
	s1()
	s2()
	if a.Misses.Value != 0 {
		t.Fatalf("highest-priority task missed %d deadlines", a.Misses.Value)
	}
	if b.Misses.Value == 0 {
		t.Fatal("overloaded task never missed")
	}
	if c.Utilization() < 0.95 {
		t.Fatalf("overloaded CPU utilization %.3f", c.Utilization())
	}
}

func TestAperiodicJobs(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	var doneAt sim.Time
	var missed bool
	_ = c.Submit("crypto", 5*sim.Millisecond, 20*sim.Millisecond, 0, func(at sim.Time, m bool) {
		doneAt, missed = at, m
	})
	_ = k.Run()
	if doneAt != 5*sim.Millisecond || missed {
		t.Fatalf("done at %v missed=%v", doneAt, missed)
	}
}

func TestAperiodicDeadlineMiss(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	var missed bool
	_ = c.Submit("slow", 30*sim.Millisecond, 10*sim.Millisecond, 0, func(_ sim.Time, m bool) { missed = m })
	_ = k.Run()
	if !missed {
		t.Fatal("late job not flagged")
	}
	if c.JobsMissed.Value != 1 {
		t.Fatalf("missed counter=%d", c.JobsMissed.Value)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	var order []string
	done := func(n string) func(sim.Time, bool) {
		return func(sim.Time, bool) { order = append(order, n) }
	}
	_ = c.Submit("first", sim.Millisecond, 0, 5, done("first"))
	_ = c.Submit("second", sim.Millisecond, 0, 5, done("second"))
	_ = c.Submit("urgent", sim.Millisecond, 0, 1, done("urgent"))
	_ = k.Run()
	// "first" was already running when "urgent" arrived in the same
	// instant... all submitted at t=0: urgent runs after first is picked?
	// Scheduling decisions happen immediately on submit: first starts,
	// urgent preempts it, then first resumes, then second.
	if len(order) != 3 || order[0] != "urgent" || order[1] != "first" || order[2] != "second" {
		t.Fatalf("order=%v", order)
	}
}

func TestValidation(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	if _, err := c.AddTask(&Task{Name: "bad", Period: 0, WCET: sim.Millisecond}); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := c.Submit("bad", 0, 0, 0, nil); err == nil {
		t.Fatal("zero WCET accepted")
	}
}

func TestPendingAndIdle(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCPU(k, "mcu")
	if c.Pending() != 0 || c.Utilization() != 0 {
		t.Fatal("fresh CPU not idle")
	}
	_ = c.Submit("a", sim.Millisecond, 0, 0, nil)
	_ = c.Submit("b", sim.Millisecond, 0, 0, nil)
	if c.Pending() != 2 {
		t.Fatalf("pending=%d", c.Pending())
	}
	_ = k.Run()
	if c.Pending() != 0 {
		t.Fatal("jobs left pending")
	}
}
