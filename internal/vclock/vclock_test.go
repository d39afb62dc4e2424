package vclock

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC) // SIGCOMM '96

func TestManualNow(t *testing.T) {
	m := NewManual(t0)
	if !m.Now().Equal(t0) {
		t.Fatal("initial Now mismatch")
	}
	m.Advance(5 * time.Millisecond)
	if !m.Now().Equal(t0.Add(5 * time.Millisecond)) {
		t.Fatal("Advance did not move clock")
	}
}

func TestManualTimerOrder(t *testing.T) {
	m := NewManual(t0)
	var order []int
	m.AfterFunc(3*time.Millisecond, func() { order = append(order, 3) })
	m.AfterFunc(1*time.Millisecond, func() { order = append(order, 1) })
	m.AfterFunc(2*time.Millisecond, func() { order = append(order, 2) })
	m.Advance(10 * time.Millisecond)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestManualFIFOAmongEqualDeadlines(t *testing.T) {
	m := NewManual(t0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		m.AfterFunc(time.Millisecond, func() { order = append(order, i) })
	}
	m.Advance(time.Millisecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestManualPartialAdvance(t *testing.T) {
	m := NewManual(t0)
	fired := 0
	m.AfterFunc(1*time.Millisecond, func() { fired++ })
	m.AfterFunc(5*time.Millisecond, func() { fired++ })
	m.Advance(2 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	m.Advance(3 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestManualStop(t *testing.T) {
	m := NewManual(t0)
	fired := false
	tm := m.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on live timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	m.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestManualStopAfterFire(t *testing.T) {
	m := NewManual(t0)
	tm := m.AfterFunc(time.Millisecond, func() {})
	m.Advance(time.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestManualCallbackSeesDeadlineTime(t *testing.T) {
	m := NewManual(t0)
	var at time.Time
	m.AfterFunc(3*time.Millisecond, func() { at = m.Now() })
	m.Advance(time.Minute)
	if !at.Equal(t0.Add(3 * time.Millisecond)) {
		t.Fatalf("callback saw %v", at)
	}
}

func TestManualCascade(t *testing.T) {
	m := NewManual(t0)
	var hits []time.Duration
	m.AfterFunc(time.Millisecond, func() {
		hits = append(hits, m.Now().Sub(t0))
		m.AfterFunc(time.Millisecond, func() {
			hits = append(hits, m.Now().Sub(t0))
		})
	})
	m.Advance(5 * time.Millisecond)
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 2*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestManualCascadeBeyondWindowDefers(t *testing.T) {
	m := NewManual(t0)
	outer, inner := false, false
	m.AfterFunc(time.Millisecond, func() {
		outer = true
		m.AfterFunc(time.Hour, func() { inner = true })
	})
	m.Advance(2 * time.Millisecond)
	if !outer || inner {
		t.Fatalf("outer=%v inner=%v", outer, inner)
	}
	m.Advance(time.Hour)
	if !inner {
		t.Fatal("inner never fired")
	}
}

func TestManualZeroAdvanceFiresDue(t *testing.T) {
	m := NewManual(t0)
	fired := false
	m.AfterFunc(0, func() { fired = true })
	m.Advance(0)
	if !fired {
		t.Fatal("due timer did not fire on Advance(0)")
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	m := NewManual(t0)
	m.Advance(time.Second)
	m.AdvanceTo(t0)
	if !m.Now().Equal(t0.Add(time.Second)) {
		t.Fatal("AdvanceTo moved clock backwards")
	}
}

func TestNextDeadline(t *testing.T) {
	m := NewManual(t0)
	if _, ok := m.NextDeadline(); ok {
		t.Fatal("empty clock reported a deadline")
	}
	tm := m.AfterFunc(2*time.Millisecond, func() {})
	m.AfterFunc(5*time.Millisecond, func() {})
	if d, ok := m.NextDeadline(); !ok || !d.Equal(t0.Add(2*time.Millisecond)) {
		t.Fatalf("NextDeadline = %v, %v", d, ok)
	}
	tm.Stop()
	if d, ok := m.NextDeadline(); !ok || !d.Equal(t0.Add(5*time.Millisecond)) {
		t.Fatalf("after stop: NextDeadline = %v, %v", d, ok)
	}
}

func TestPendingCount(t *testing.T) {
	m := NewManual(t0)
	a := m.AfterFunc(time.Millisecond, func() {})
	m.AfterFunc(time.Millisecond, func() {})
	if m.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d", m.PendingCount())
	}
	a.Stop()
	if m.PendingCount() != 1 {
		t.Fatalf("after stop: PendingCount = %d", m.PendingCount())
	}
	m.Advance(time.Millisecond)
	if m.PendingCount() != 0 {
		t.Fatalf("after fire: PendingCount = %d", m.PendingCount())
	}
}

func TestManualConcurrentSchedule(t *testing.T) {
	m := NewManual(t0)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.AfterFunc(time.Millisecond, func() {
				mu.Lock()
				fired++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	m.Advance(time.Millisecond)
	if fired != 50 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	done := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported true")
	}
	if c.Now().IsZero() {
		t.Fatal("Real.Now is zero")
	}
}

// Property: advancing in arbitrary increments fires the same timers at
// the same deadlines as a single big advance.
func TestQuickAdvanceSplitEquivalence(t *testing.T) {
	f := func(deadlines []uint16, steps []uint8) bool {
		if len(deadlines) > 20 {
			deadlines = deadlines[:20]
		}
		run := func(split bool) []time.Duration {
			m := NewManual(t0)
			var fired []time.Duration
			for _, d := range deadlines {
				m.AfterFunc(time.Duration(d)*time.Microsecond, func() {
					fired = append(fired, m.Now().Sub(t0))
				})
			}
			total := 70000 * time.Microsecond
			if split {
				var acc time.Duration
				for _, s := range steps {
					step := time.Duration(s) * time.Microsecond
					if acc+step > total {
						break
					}
					m.Advance(step)
					acc += step
				}
				m.Advance(total - acc)
			} else {
				m.Advance(total)
			}
			return fired
		}
		one, many := run(false), run(true)
		if len(one) != len(many) {
			return false
		}
		for i := range one {
			if one[i] != many[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestManualResetMatchesStopAfterFunc runs seeded random schedules of
// AfterFunc/Stop/Reset/Advance twice — once with Reset, once with every
// Reset expanded to Stop plus a new AfterFunc — and demands the same
// callbacks at the same instants in the same order. Delays are drawn
// from a handful of values so equal deadlines, where only the FIFO
// sequence number decides, are the common case; some callbacks re-arm
// their own timer from inside the firing.
func TestManualResetMatchesStopAfterFunc(t *testing.T) {
	type firing struct {
		slot int
		at   time.Duration
	}
	const slots = 6
	run := func(seed int64, expand bool) ([]firing, []int) {
		rng := rand.New(rand.NewSource(seed))
		m := NewManual(t0)
		var log []firing
		var pending []int
		var timers [slots]Timer
		rearm := [slots]int{} // re-arms left for the slot's callback to do itself
		var arm func(slot int, d time.Duration)
		arm = func(slot int, d time.Duration) {
			if timers[slot] != nil && !expand {
				timers[slot].Reset(d)
				return
			}
			if timers[slot] != nil {
				timers[slot].Stop()
			}
			timers[slot] = m.AfterFunc(d, func() {
				log = append(log, firing{slot, m.Now().Sub(t0)})
				if rearm[slot] > 0 {
					rearm[slot]--
					arm(slot, time.Duration(slot%3)*time.Millisecond)
				}
			})
		}
		for i := 0; i < 400; i++ {
			slot := rng.Intn(slots)
			d := time.Duration(rng.Intn(4)) * time.Millisecond
			switch rng.Intn(5) {
			case 0, 1:
				arm(slot, d)
			case 2:
				rearm[slot] = rng.Intn(3)
			case 3:
				if timers[slot] != nil {
					timers[slot].Stop()
				}
			case 4:
				m.Advance(d)
			}
			pending = append(pending, m.PendingCount())
		}
		m.Advance(time.Second)
		return log, pending
	}
	for seed := int64(1); seed <= 50; seed++ {
		native, nativePending := run(seed, false)
		expanded, expandedPending := run(seed, true)
		if !reflect.DeepEqual(native, expanded) {
			t.Fatalf("seed %d: firings differ\nReset:          %v\nStop+AfterFunc: %v", seed, native, expanded)
		}
		if !reflect.DeepEqual(nativePending, expandedPending) {
			t.Fatalf("seed %d: PendingCount differs after some operation", seed)
		}
		if len(native) == 0 {
			t.Fatalf("seed %d: schedule fired nothing", seed)
		}
	}
}

// TestManualStopResetLeaveNoTombstones pins the heap to live timers only:
// a stopped timer leaves at once instead of lingering until its old
// deadline, so re-arming one timer any number of times keeps one node.
func TestManualStopResetLeaveNoTombstones(t *testing.T) {
	m := NewManual(t0)
	fired := 0
	other := m.AfterFunc(time.Hour, func() {})
	tm := m.AfterFunc(time.Minute, func() { fired++ })
	check := func(i, want int) {
		t.Helper()
		if got := m.PendingCount(); got != want || len(m.pending) != want {
			t.Fatalf("cycle %d: PendingCount = %d, heap length = %d, want %d", i, got, len(m.pending), want)
		}
	}
	for i := 0; i < 100000; i++ {
		switch i % 3 {
		case 0:
			if !tm.Stop() {
				t.Fatalf("cycle %d: Stop of a pending timer reported false", i)
			}
			check(i, 1)
			if tm.Stop() {
				t.Fatalf("cycle %d: second Stop reported true", i)
			}
		case 1:
			tm.Reset(time.Minute) // stopped → pending
		case 2:
			tm.Reset(2 * time.Minute) // pending → moved, not duplicated
		}
		if i%3 != 0 {
			check(i, 2)
		}
	}
	tm.Reset(time.Minute)
	m.Advance(3 * time.Minute)
	if fired != 1 {
		t.Fatalf("timer re-armed through 100000 cycles fired %d times, want 1", fired)
	}
	check(-1, 1)
	tm.Reset(time.Minute) // fired → pending
	check(-1, 2)
	other.Stop()
	m.Advance(time.Minute)
	if fired != 2 {
		t.Fatalf("fired = %d after re-arming a fired timer, want 2", fired)
	}
	check(-1, 0)
}

func TestRealReset(t *testing.T) {
	fired := make(chan struct{}, 2)
	tm := Real{}.AfterFunc(time.Hour, func() { fired <- struct{}{} })
	tm.Reset(time.Millisecond) // pending → sooner
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer reset to 1ms never fired")
	}
	tm.Reset(time.Millisecond) // fired → armed again
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("fired timer did not fire again after Reset")
	}
	tm.Reset(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop after Reset reported the timer not pending")
	}
}
