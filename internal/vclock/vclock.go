// Package vclock abstracts time for the protocol stack.
//
// Protocol layers (retransmission timeouts, heartbeats) and the simulated
// network (propagation latency) never read the wall clock directly; they go
// through a Clock. Two implementations are provided: Real, backed by the
// time package, and Manual, a deterministic clock advanced explicitly by
// tests and by the discrete-event simulator.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock supplies the current time and one-shot timers.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc arranges for f to be called once, d after Now. It
	// returns a Timer that can cancel the call. f runs on an unspecified
	// goroutine (Real) or synchronously inside Advance (Manual); it must
	// not block.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable, re-armable pending call created by AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before it ran.
	Stop() bool
	// Reset re-arms the timer to call f once, d after Now, whether it is
	// pending, stopped or has fired: the same schedule as Stop followed
	// by a new AfterFunc, without creating a timer. Like time.Timer.Reset
	// it does not wait for a call already started; an owner that re-arms
	// a timer its callback shares state with keeps its own armed flag.
	Reset(d time.Duration)
}

// Real is a Clock backed by the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool            { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) { r.t.Reset(d) }

// Manual is a deterministic Clock whose time only moves when Advance or
// AdvanceTo is called. Timers fire synchronously, in deadline order, on the
// goroutine that advances the clock. Manual is safe for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	pending timerHeap
	seq     uint64
}

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc implements Clock. A non-positive d fires on the next Advance
// call (even Advance(0)).
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{clock: m, f: f, index: -1}
	m.schedule(t, d)
	return t
}

// schedule queues t, or moves it if it is already queued, to fire d from
// now. The fresh sequence number puts it behind every timer already due
// at that instant. Caller holds m.mu.
func (m *Manual) schedule(t *manualTimer, d time.Duration) {
	m.seq++
	t.deadline = m.now.Add(d)
	t.seq = m.seq
	if t.index >= 0 {
		heap.Fix(&m.pending, t.index)
	} else {
		heap.Push(&m.pending, t)
	}
}

// Advance moves the clock forward by d, firing every timer whose deadline
// falls within the window, in deadline order (FIFO among equal deadlines).
// Timers scheduled by the fired callbacks also fire if they fall within the
// window. Advance(0) fires timers due exactly now.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.AdvanceToLocked(m.now.Add(d))
}

// AdvanceTo moves the clock forward to t (no-op if t is in the past),
// firing timers as for Advance.
func (m *Manual) AdvanceTo(t time.Time) {
	m.mu.Lock()
	if t.Before(m.now) {
		m.mu.Unlock()
		return
	}
	m.AdvanceToLocked(t)
}

// AdvanceToLocked completes an advance with m.mu held; it releases the lock
// around each callback and before returning.
func (m *Manual) AdvanceToLocked(target time.Time) {
	for {
		if len(m.pending) == 0 || m.pending[0].deadline.After(target) {
			break
		}
		t := heap.Pop(&m.pending).(*manualTimer)
		if t.deadline.After(m.now) {
			m.now = t.deadline
		}
		f := t.f
		m.mu.Unlock()
		f()
		m.mu.Lock()
	}
	if target.After(m.now) {
		m.now = target
	}
	m.mu.Unlock()
}

// NextDeadline returns the deadline of the earliest pending timer, and
// whether one exists. The simulator uses this to hop between events.
func (m *Manual) NextDeadline() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return time.Time{}, false
	}
	return m.pending[0].deadline, true
}

// PendingCount returns the number of live (unstopped, unfired) timers.
func (m *Manual) PendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

type manualTimer struct {
	clock    *Manual
	deadline time.Time
	seq      uint64 // FIFO tiebreak among equal deadlines
	index    int    // position in clock.pending; -1 when stopped or fired
	f        func()
}

// Stop implements Timer. The timer leaves the heap at once, so the heap
// holds live timers only and a later Reset cannot queue it twice.
func (t *manualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.clock.pending, t.index)
	return true
}

// Reset implements Timer: the timer ends up exactly where Stop followed by
// a new AfterFunc would have put its replacement.
func (t *manualTimer) Reset(d time.Duration) {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.clock.schedule(t, d)
}

// timerHeap is a min-heap of timers ordered by (deadline, seq).
type timerHeap []*manualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*manualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.index = -1
	return t
}
