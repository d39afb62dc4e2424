// Package evsim is a discrete-event simulation of the paper's testbed —
// two SparcStation 20s over 140 Mbit/s ATM with U-Net — used to
// regenerate Table 4 and Figures 4 and 5 from the paper's measured phase
// costs.
//
// The simulation reproduces the Protocol Accelerator's *scheduling
// policy* exactly as implemented in package core: pre-processing and
// deliveries are critical work; post-processing and garbage collection
// are lazy work that runs when the CPU is otherwise idle, but a critical
// operation that depends on a lazy item (the §3.1 "before the next send
// or delivery operation" rule) forces it to completion first. Figure 5's
// saturation behaviour emerges from exactly this interaction.
package evsim

import (
	"container/heap"
	"time"
)

// Sim is a minimal discrete-event kernel: a clock and an event heap.
type Sim struct {
	now time.Duration
	pq  eventHeap
	seq uint64
}

// At schedules f at virtual time t (not before now).
func (s *Sim) At(t time.Duration, f func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, event{t: t, seq: s.seq, f: f})
}

// Run processes events until the heap is empty.
func (s *Sim) Run() {
	for s.pq.Len() > 0 {
		e := heap.Pop(&s.pq).(event)
		s.now = e.t
		e.f()
	}
}

type event struct {
	t   time.Duration
	seq uint64
	f   func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Lazy is one queued unit of post-processing (or garbage collection). It
// runs in CPU idle time, or is forced by a dependent critical operation.
type Lazy struct {
	Label     string
	remaining time.Duration
	done      bool
	doneAt    time.Duration
}

// Done reports completion; DoneAt is valid once Done.
func (l *Lazy) Done() bool { return l == nil || l.done }

// DoneAt returns the completion time.
func (l *Lazy) DoneAt() time.Duration { return l.doneAt }

// CPU models one host processor with preemptible background (lazy) work.
// Critical submissions must arrive in non-decreasing simulation time,
// which the event kernel guarantees.
type CPU struct {
	Name string

	busyUntil time.Duration // end of the last critical execution
	lazyMark  time.Duration // point up to which idle time was accounted
	lazyQ     []*Lazy
}

// AddLazy queues background work of duration d at the current time.
func (c *CPU) AddLazy(now time.Duration, d time.Duration, label string) *Lazy {
	c.progress(now)
	l := &Lazy{Label: label, remaining: d}
	if d <= 0 {
		l.done = true
		l.doneAt = now
	} else {
		c.lazyQ = append(c.lazyQ, l)
	}
	return l
}

// progress consumes idle CPU time [lazyMark, now) on queued lazy work.
func (c *CPU) progress(now time.Duration) {
	start := c.lazyMark
	if c.busyUntil > start {
		start = c.busyUntil
	}
	for len(c.lazyQ) > 0 && start < now {
		l := c.lazyQ[0]
		avail := now - start
		if l.remaining <= avail {
			start += l.remaining
			l.remaining = 0
			l.done = true
			l.doneAt = start
			c.lazyQ = c.lazyQ[1:]
		} else {
			l.remaining -= avail
			start = now
		}
	}
	if now > c.lazyMark {
		c.lazyMark = now
	}
}

// Exec runs a critical operation of duration d requested at time now. Any
// listed dependencies that have not yet completed are forced to run first
// (the engine's drain). It returns the completion time.
func (c *CPU) Exec(now time.Duration, d time.Duration, deps ...*Lazy) time.Duration {
	c.progress(now)
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	for _, dep := range deps {
		if dep == nil || dep.done {
			continue
		}
		start += dep.remaining
		dep.remaining = 0
		dep.done = true
		dep.doneAt = start
		c.removeLazy(dep)
	}
	end := start + d
	c.busyUntil = end
	if c.lazyMark < end {
		c.lazyMark = end
	}
	return end
}

func (c *CPU) removeLazy(target *Lazy) {
	for i, l := range c.lazyQ {
		if l == target {
			c.lazyQ = append(c.lazyQ[:i], c.lazyQ[i+1:]...)
			return
		}
	}
}

// Flush completes all remaining lazy work starting no earlier than now,
// returning the time the CPU finally went idle.
func (c *CPU) Flush(now time.Duration) time.Duration {
	c.progress(now)
	start := now
	if c.busyUntil > start {
		start = c.busyUntil
	}
	for _, l := range c.lazyQ {
		start += l.remaining
		l.remaining = 0
		l.done = true
		l.doneAt = start
	}
	c.lazyQ = nil
	if c.lazyMark < start {
		c.lazyMark = start
	}
	return start
}

// Backlog returns the amount of queued lazy work.
func (c *CPU) Backlog() time.Duration {
	var total time.Duration
	for _, l := range c.lazyQ {
		total += l.remaining
	}
	return total
}
