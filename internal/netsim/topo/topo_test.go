package topo

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

// capture collects deliveries with their virtual arrival times.
type capture struct {
	mu   sync.Mutex
	srcs []Addr
	data [][]byte
	at   []time.Time
}

func (c *capture) handler(clk vclock.Clock) func(Addr, []byte) {
	return func(src Addr, d []byte) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.srcs = append(c.srcs, src)
		c.data = append(c.data, append([]byte(nil), d...))
		c.at = append(c.at, clk.Now())
	}
}

func (c *capture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.srcs)
}

// twoRouter builds A—r1—r2—B with the given interior link config and
// instant access links.
func twoRouter(clk vclock.Clock, seed int64, interior LinkConfig) (*Internet, *Host, *Host) {
	n := New(clk, Config{Seed: seed})
	n.AddRouter("r1")
	n.AddRouter("r2")
	n.Link("r1", "r2", interior)
	a := n.Host("10.0.0.2:1", "r1", LinkConfig{})
	b := n.Host("10.0.1.2:1", "r2", LinkConfig{})
	return n, a, b
}

func TestMultiHopSynchronousDelivery(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	var cap capture
	b.SetHandler(cap.handler(clk))
	if err := a.Send(b.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if cap.count() != 1 {
		t.Fatal("instant multi-hop path did not deliver synchronously")
	}
	if cap.srcs[0] != a.LocalAddr() {
		t.Fatalf("src = %q, want %q", cap.srcs[0], a.LocalAddr())
	}
	if string(cap.data[0]) != "hello" {
		t.Fatalf("payload = %q", cap.data[0])
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Lost() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiHopLatencyAccumulates(t *testing.T) {
	clk := vclock.NewManual(t0)
	n := New(clk, Config{})
	n.AddRouter("r1")
	n.AddRouter("r2")
	n.Link("r1", "r2", LinkConfig{Latency: 3 * time.Millisecond})
	a := n.Host("10.0.0.2:1", "r1", LinkConfig{Latency: time.Millisecond})
	b := n.Host("10.0.1.2:1", "r2", LinkConfig{Latency: 2 * time.Millisecond})
	var cap capture
	b.SetHandler(cap.handler(clk))
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cap.count() != 0 {
		t.Fatal("latent path delivered synchronously")
	}
	clk.Advance(5 * time.Millisecond)
	if cap.count() != 0 {
		t.Fatal("delivered before the full path latency")
	}
	clk.Advance(time.Millisecond)
	if cap.count() != 1 {
		t.Fatal("not delivered after 1+3+2 ms")
	}
	if got := cap.at[0].Sub(t0); got != 6*time.Millisecond {
		t.Fatalf("arrival at %v, want 6ms", got)
	}
}

func TestAsymmetricPath(t *testing.T) {
	clk := vclock.NewManual(t0)
	n := New(clk, Config{})
	n.AddRouter("r1")
	n.AddRouter("r2")
	// Interior edge: 1ms r1→r2, 9ms back — one LinkAsym call.
	n.LinkAsym("r1", "r2",
		LinkConfig{Latency: time.Millisecond},
		LinkConfig{Latency: 9 * time.Millisecond})
	a := n.Host("10.0.0.2:1", "r1", LinkConfig{})
	b := n.Host("10.0.1.2:1", "r2", LinkConfig{})

	var capA, capB capture
	a.SetHandler(capA.handler(clk))
	b.SetHandler(capB.handler(clk))
	if err := a.Send(b.LocalAddr(), []byte("down")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.LocalAddr(), []byte("up")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if capB.count() != 1 || capA.count() != 0 {
		t.Fatalf("after 1ms: down=%d up=%d", capB.count(), capA.count())
	}
	clk.Advance(8 * time.Millisecond)
	if capA.count() != 1 {
		t.Fatal("uplink packet not delivered after its 9ms")
	}
}

func TestFirstHopMTUIsTypedError(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	big := make([]byte, DefaultMTU+1)
	err := a.Send(b.LocalAddr(), big)
	if err == nil {
		t.Fatal("oversized first hop did not error")
	}
	if st := n.Stats(); st.Sent != 0 {
		t.Fatalf("refused datagram counted as sent: %+v", st)
	}
}

func TestInteriorMTUIsSilentBlackhole(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{MTU: 576})
	var cap capture
	b.SetHandler(cap.handler(clk))
	if err := a.Send(b.LocalAddr(), make([]byte, 1000)); err != nil {
		t.Fatalf("interior MTU must not surface at the sender: %v", err)
	}
	clk.Advance(time.Second)
	if cap.count() != 0 {
		t.Fatal("oversized packet crossed a 576-byte interior link")
	}
	st := n.Stats()
	if st.MTUDrops != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueOverflowAndBufferbloat(t *testing.T) {
	clk := vclock.NewManual(t0)
	// 1 Mbit/s interior link, 8-packet queue: 1000-byte packets each
	// take 8ms to serialize; a 12-packet burst overflows by 3 (one is
	// in service the instant the burst lands).
	n, a, b := twoRouter(clk, 0, LinkConfig{BitRate: 1e6, QueueLen: 8})
	rec := telemetry.New(telemetry.Options{Clock: clk})
	n.SetTelemetry(rec)
	var cap capture
	b.SetHandler(cap.handler(clk))

	const burst = 12
	payload := make([]byte, 1000)
	for i := 0; i < burst; i++ {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	depth, drops := n.QueueStats("r1")
	if depth == 0 {
		t.Fatal("burst did not build a queue")
	}
	if drops == 0 {
		t.Fatal("burst did not overflow the 8-packet queue")
	}
	if v := rec.NamedGauge("r1/queue_depth").Value(); int(v) != depth {
		t.Fatalf("queue_depth gauge %d, queue %d", v, depth)
	}

	// Drain: every admitted packet arrives, each 8ms after the one
	// before — the queueing delay ramp is the bufferbloat.
	clk.Advance(time.Second)
	st := n.Stats()
	if st.QueueDrops != drops || st.QueueDrops == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := uint64(cap.count()); got != st.Delivered || got != burst-st.QueueDrops {
		t.Fatalf("delivered %d of %d with %d drops", got, burst, st.QueueDrops)
	}
	if cap.count() >= 2 {
		gap := cap.at[1].Sub(cap.at[0])
		if gap != 8*time.Millisecond {
			t.Fatalf("serialization gap %v, want 8ms", gap)
		}
	}
	last := cap.at[cap.count()-1].Sub(t0)
	if last < 64*time.Millisecond {
		t.Fatalf("last delivery at %v — no queueing delay accumulated", last)
	}
	if v := rec.NamedGauge("r1/queue_depth").Value(); v != 0 {
		t.Fatalf("queue_depth gauge %d after drain", v)
	}
	if v := rec.NamedGauge("r1/queue_drops").Value(); uint64(v) != st.QueueDrops {
		t.Fatalf("queue_drops gauge %d, want %d", v, st.QueueDrops)
	}
	// Overflow events reached the ring.
	events := rec.Snapshot(false).Events
	saw := false
	for _, e := range events {
		if e.Kind == telemetry.EventFault && e.Cause == "topo: queue overflow on r1->r2" {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no queue-overflow fault event recorded")
	}
}

func TestPartitionAndHealInteriorEdge(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	var cap capture
	b.SetHandler(cap.handler(clk))

	n.Partition("r1", "r2")
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.LocalAddr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if cap.count() != 0 {
		t.Fatal("partitioned interior edge delivered")
	}
	if st := n.Stats(); st.LinkDrops != 2 {
		t.Fatalf("stats = %+v", st)
	}
	n.Heal("r1", "r2")
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cap.count() != 1 {
		t.Fatal("healed edge did not deliver")
	}
}

func TestUnknownDestinationIsLost(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, _ := twoRouter(clk, 0, LinkConfig{})
	if err := a.Send("203.0.113.9:9", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.RouteDrops != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClosedHostIsRouteDrop(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	b.Close()
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.LocalAddr(), []byte("x")); err != ErrClosed {
		t.Fatalf("send on closed host = %v", err)
	}
	if st := n.Stats(); st.RouteDrops != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameIPLoopback(t *testing.T) {
	clk := vclock.NewManual(t0)
	n := New(clk, Config{})
	n.AddRouter("r1")
	p1 := n.Host("10.0.0.2:1", "r1", LinkConfig{})
	p2 := n.Host("10.0.0.2:2", "r1", LinkConfig{})
	var cap capture
	p2.SetHandler(cap.handler(clk))
	if err := p1.Send(p2.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cap.count() != 1 || cap.srcs[0] != p1.LocalAddr() {
		t.Fatalf("loopback: count=%d srcs=%v", cap.count(), cap.srcs)
	}
}

func TestBorrowOnlyDelivery(t *testing.T) {
	clk := vclock.NewManual(t0)
	_, a, b := twoRouter(clk, 0, LinkConfig{})
	var seen []byte
	b.SetHandler(func(src Addr, d []byte) { seen = d })
	payload := []byte("sensitive")
	if err := a.Send(b.LocalAddr(), payload); err != nil {
		t.Fatal(err)
	}
	// The sender's buffer is its own again: mutating it must not
	// affect what was delivered (the network copied).
	payload[0] = 'X'
	if string(seen) != "sensitive" {
		t.Fatalf("delivered slice aliases the sender's buffer: %q", seen)
	}
}

func TestSendBatchSliceOrderAndStats(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	var cap capture
	b.SetHandler(cap.handler(clk))
	batch := [][]byte{[]byte("0"), []byte("1"), []byte("2")}
	sent, err := a.SendBatch(b.LocalAddr(), batch)
	if err != nil || sent != 3 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	for i := range batch {
		if string(cap.data[i]) != fmt.Sprint(i) {
			t.Fatalf("batch out of order: %q at %d", cap.data[i], i)
		}
	}
	st := n.Stats()
	if st.BatchSends != 1 || st.BatchDatagrams != 3 || st.Sent != 3 {
		t.Fatalf("stats = %+v", st)
	}

	// A first-hop MTU violation mid-batch reports the prefix.
	bad := [][]byte{[]byte("ok"), make([]byte, DefaultMTU+1), []byte("never")}
	sent, err = a.SendBatch(b.LocalAddr(), bad)
	if sent != 1 || err == nil {
		t.Fatalf("mid-batch oversize: sent=%d err=%v", sent, err)
	}
}

// TestDeterministicReplay pins the seeded-replay contract: the same
// topology, seed and schedule produce identical delivery order, arrival
// times and stats — jitter, loss and queue fates included.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]string, []time.Time, Stats) {
		clk := vclock.NewManual(t0)
		n, a, b := twoRouter(clk, 7, LinkConfig{
			Latency: time.Millisecond, Jitter: 4 * time.Millisecond,
			LossRate: 0.2, BitRate: 5e6, QueueLen: 4,
		})
		var cap capture
		b.SetHandler(cap.handler(clk))
		for i := 0; i < 40; i++ {
			if err := a.Send(b.LocalAddr(), []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
			clk.Advance(500 * time.Microsecond)
		}
		clk.Advance(time.Second)
		var msgs []string
		for _, d := range cap.data {
			msgs = append(msgs, string(d))
		}
		return msgs, cap.at, n.Stats()
	}
	m1, t1, s1 := run()
	m2, t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(m1) != len(m2) {
		t.Fatalf("delivery count diverged: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] || !t1[i].Equal(t2[i]) {
			t.Fatalf("replay diverged at %d: %q@%v vs %q@%v", i, m1[i], t1[i], m2[i], t2[i])
		}
	}
	if s1.LossDrops == 0 {
		t.Fatal("schedule exercised no loss — weak replay test")
	}
}

// TestRoutingTieBreakDeterministic pins next-hop selection under
// equal-cost paths to sorted-name order, part of the replay contract.
func TestRoutingTieBreakDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		clk := vclock.NewManual(t0)
		n := New(clk, Config{})
		// Diamond: a — (r1|r2) — b, equal length.
		n.AddRouter("ra")
		n.AddRouter("rb")
		n.AddRouter("r1")
		n.AddRouter("r2")
		n.Link("ra", "r1", LinkConfig{})
		n.Link("ra", "r2", LinkConfig{})
		n.Link("rb", "r1", LinkConfig{})
		n.Link("rb", "r2", LinkConfig{})
		n.mu.Lock()
		hop := n.routes["ra"]["rb"]
		n.mu.Unlock()
		if hop != "r1" {
			t.Fatalf("tie broke to %q, want sorted-first r1", hop)
		}
	}
}

func TestHopBudgetDropsRoutingLoops(t *testing.T) {
	clk := vclock.NewManual(t0)
	n := New(clk, Config{MaxHops: 4})
	n.AddRouter("r1")
	a := n.Host("10.0.0.2:1", "r1", LinkConfig{})
	// Sabotage the routing table to create a loop r1 <-> r2.
	n.AddRouter("r2")
	n.Link("r1", "r2", LinkConfig{})
	b := n.Host("10.0.1.2:1", "r2", LinkConfig{})
	n.mu.Lock()
	n.routes["r1"]["10.0.1.2"] = "r2"
	n.routes["r2"]["10.0.1.2"] = "r1" // loop back
	n.mu.Unlock()
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.RouteDrops != 1 {
		t.Fatalf("looping packet not dropped by hop budget: %+v", st)
	}
}

// heldClock is a clock whose timers fire only when the test calls them,
// in whatever order it picks — the race a real clock's timer goroutines
// can produce.
type heldClock struct {
	now  time.Time
	held []func()
}

func (c *heldClock) Now() time.Time { return c.now }

func (c *heldClock) AfterFunc(_ time.Duration, f func()) vclock.Timer {
	c.held = append(c.held, f)
	return heldTimer{}
}

type heldTimer struct{}

func (heldTimer) Stop() bool            { return false }
func (heldTimer) Reset(d time.Duration) {}

// TestHostDeliversInArrivalOrder checks a host's delivery heap: frames
// that reach it while its handler runs are delivered by arrival time,
// then send order, whatever order their timers fired in. B is
// multihomed, so frames reach it over two last links that do not
// serialize each other. Four frames cross access links of 10 ms (via r1)
// and 1, 5 and 5 ms (via r2) to B; their timers fire in the order slow,
// fast, tie-2, tie-1 inside B's handler for an instant trigger frame.
func TestHostDeliversInArrivalOrder(t *testing.T) {
	clk := &heldClock{now: t0}
	n := New(clk, Config{})
	n.AddRouter("r1")
	n.AddRouter("r2")
	b := n.Host("10.0.0.1:1", "r1", LinkConfig{})
	n.Link("10.0.0.1", "r2", LinkConfig{})
	trig := n.Host("10.0.0.2:1", "r1", LinkConfig{})
	sends := []struct {
		payload, via string
		latency      time.Duration
	}{
		{"slow", "r1", 10 * time.Millisecond},
		{"fast", "r2", time.Millisecond},
		{"tie-1", "r2", 5 * time.Millisecond},
		{"tie-2", "r2", 5 * time.Millisecond},
	}
	for i, s := range sends {
		h := n.Host(fmt.Sprintf("10.0.1.%d:1", i), s.via, LinkConfig{Latency: s.latency})
		if err := h.Send(b.LocalAddr(), []byte(s.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if len(clk.held) != len(sends) {
		t.Fatalf("%d timers held, want %d", len(clk.held), len(sends))
	}
	var got []string
	b.SetHandler(func(_ Addr, d []byte) {
		got = append(got, string(d))
		if string(d) == "trigger" {
			for _, i := range []int{0, 1, 3, 2} {
				clk.held[i]()
			}
		}
	})
	if err := trig.Send(b.LocalAddr(), []byte("trigger")); err != nil {
		t.Fatal(err)
	}
	if want := "[trigger fast tie-1 tie-2 slow]"; fmt.Sprint(got) != want {
		t.Fatalf("delivery order %v, want %s", got, want)
	}
}
