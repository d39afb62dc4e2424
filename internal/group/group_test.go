package group

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"paccel/internal/netsim"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

// recorder captures deliveries at one member.
type recorder struct {
	mu   sync.Mutex
	msgs []string // "origin:payload"
}

func (r *recorder) hook(g *Group) {
	g.OnDeliver(func(origin string, p []byte) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs = append(r.msgs, origin+":"+string(p))
	})
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...)
}

func meshWithRecorders(t *testing.T, names []string, clk *vclock.Manual, cfg netsim.Config, order Order, seq string) (*Mesh, map[string]*recorder) {
	t.Helper()
	m, err := NewMesh(names, clk, cfg, order, seq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	recs := make(map[string]*recorder)
	for _, n := range names {
		recs[n] = &recorder{}
		recs[n].hook(m.Groups[n])
	}
	return m, recs
}

func TestFrameCodec(t *testing.T) {
	for _, c := range []struct {
		kind, ctl byte
		origin    string
		seq       uint32
		payload   string
	}{
		{kindFIFO, ctlApp, "alice", 0, "hello"},
		{kindToSeq, ctlApp, "bob", 0, ""},
		{kindSequenced, ctlApp, "carol", 42, "ordered"},
		{kindSequenced, ctlView, "seq", 7, "view-bytes"},
	} {
		f := encodeFrame(c.kind, c.ctl, c.origin, c.seq, []byte(c.payload))
		kind, ctl, origin, seq, payload, err := decodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if kind != c.kind || ctl != c.ctl || origin != c.origin || string(payload) != c.payload {
			t.Fatalf("round trip: %v", c)
		}
		if c.kind == kindSequenced && seq != c.seq {
			t.Fatalf("seq = %d", seq)
		}
	}
	for _, bad := range [][]byte{nil, {0}, {0, 0}, {0, 0, 5, 'a'}, {2, 0, 1, 'x', 0, 0}, {9, 0, 0}, {0, 7, 0}} {
		if _, _, _, _, _, err := decodeFrame(bad); err == nil {
			t.Fatalf("decodeFrame(%v) accepted", bad)
		}
	}
}

func TestFIFOMulticast(t *testing.T) {
	clk := vclock.NewManual(t0)
	names := []string{"a", "b", "c"}
	m, recs := meshWithRecorders(t, names, clk, netsim.Config{}, FIFO, "")
	for i := 0; i < 5; i++ {
		if err := m.Groups["a"].Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	for _, n := range names {
		got := recs[n].list()
		if len(got) != 5 {
			t.Fatalf("%s delivered %d", n, len(got))
		}
		for i, msg := range got {
			if msg != fmt.Sprintf("a:m%d", i) {
				t.Fatalf("%s out of order: %v", n, got)
			}
		}
	}
}

func TestFIFOSelfDelivery(t *testing.T) {
	clk := vclock.NewManual(t0)
	m, recs := meshWithRecorders(t, []string{"a", "b"}, clk, netsim.Config{}, FIFO, "")
	if err := m.Groups["a"].Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := recs["a"].list(); len(got) != 1 || got[0] != "a:x" {
		t.Fatalf("self delivery = %v", got)
	}
}

func TestTotalOrderIdenticalEverywhere(t *testing.T) {
	clk := vclock.NewManual(t0)
	names := []string{"a", "b", "c", "d"}
	m, recs := meshWithRecorders(t, names, clk, netsim.Config{Latency: 40 * time.Microsecond}, Total, "a")
	// Everyone sends concurrently (interleaved in virtual time).
	for i := 0; i < 6; i++ {
		for _, n := range names {
			if err := m.Groups[n].Send([]byte(fmt.Sprintf("%s-%d", n, i))); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(10 * time.Microsecond)
	}
	clk.Advance(time.Second)
	want := recs["a"].list()
	if len(want) != 24 {
		t.Fatalf("sequencer delivered %d/24", len(want))
	}
	for _, n := range names[1:] {
		got := recs[n].list()
		if len(got) != len(want) {
			t.Fatalf("%s delivered %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order differs at %d: %s saw %q, sequencer %q", i, n, got[i], want[i])
			}
		}
	}
	if m.Groups["a"].Stats().Sequenced != 24 {
		t.Fatalf("sequenced = %d", m.Groups["a"].Stats().Sequenced)
	}
}

// TestTotalOrderConcurrentSenders has every member send from its own
// goroutine over the synchronous network, so the sequencer numbers frames
// on several goroutines at once: every member must still deliver one
// identical order.
func TestTotalOrderConcurrentSenders(t *testing.T) {
	names := []string{"a", "b", "c"}
	const perMember = 200
	m, recs := meshWithRecorders(t, names, vclock.NewManual(t0), netsim.Config{}, Total, "a")
	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perMember; i++ {
				if err := m.Groups[n].Send([]byte(fmt.Sprintf("%s-%d", n, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := recs["a"].list()
	if len(want) != perMember*len(names) {
		t.Fatalf("sequencer delivered %d/%d", len(want), perMember*len(names))
	}
	for _, n := range names[1:] {
		got := recs[n].list()
		if len(got) != len(want) {
			t.Fatalf("%s delivered %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order differs at %d: %s saw %q, sequencer %q", i, n, got[i], want[i])
			}
		}
	}
}

func TestTotalOrderUnderLossAndReorder(t *testing.T) {
	clk := vclock.NewManual(t0)
	names := []string{"a", "b", "c"}
	m, recs := meshWithRecorders(t, names, clk, netsim.Config{
		Latency: 60 * time.Microsecond, LossRate: 0.2, ReorderRate: 0.2, Seed: 17,
	}, Total, "b")
	rng := rand.New(rand.NewSource(9))
	const per = 10
	for i := 0; i < per; i++ {
		for _, n := range names {
			if err := m.Groups[n].Send([]byte(fmt.Sprintf("%s%d", n, i))); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Duration(rng.Intn(100)) * time.Microsecond)
		}
	}
	total := per * len(names)
	allDone := func() bool {
		for _, n := range names {
			if len(recs[n].list()) < total {
				return false
			}
		}
		return true
	}
	for i := 0; i < 400 && !allDone(); i++ {
		clk.Advance(200 * time.Millisecond)
	}
	want := recs["a"].list()
	if len(want) != total {
		t.Fatalf("a delivered %d/%d", len(want), total)
	}
	for _, n := range names[1:] {
		got := recs[n].list()
		if len(got) != total {
			t.Fatalf("%s delivered %d/%d", n, len(got), total)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("total order violated at %d: %q vs %q", i, got[i], want[i])
			}
		}
	}
}

func TestFIFOPerSenderUnderLoss(t *testing.T) {
	clk := vclock.NewManual(t0)
	names := []string{"a", "b", "c"}
	m, recs := meshWithRecorders(t, names, clk, netsim.Config{
		Latency: 50 * time.Microsecond, LossRate: 0.25, Seed: 4,
	}, FIFO, "")
	const per = 15
	for i := 0; i < per; i++ {
		for _, n := range names {
			if err := m.Groups[n].Send([]byte(fmt.Sprintf("%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Millisecond)
	}
	allDone := func() bool {
		for _, n := range names {
			if len(recs[n].list()) < per*len(names) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 400 && !allDone(); i++ {
		clk.Advance(200 * time.Millisecond)
	}
	// Every member sees every sender's stream gap-free and in order.
	for _, n := range names {
		got := recs[n].list()
		if len(got) != per*len(names) {
			t.Fatalf("%s delivered %d", n, len(got))
		}
		next := map[string]int{}
		for _, msg := range got {
			var origin string
			var k int
			if _, err := fmt.Sscanf(msg, "%1s:%d", &origin, &k); err != nil {
				t.Fatalf("parse %q: %v", msg, err)
			}
			if k != next[origin] {
				t.Fatalf("%s: sender %s out of order: got %d want %d", n, origin, k, next[origin])
			}
			next[origin]++
		}
	}
}

func TestSequencedFramesOnlyFromSequencer(t *testing.T) {
	g := New("me", Total, "seq")
	var got []string
	g.OnDeliver(func(origin string, p []byte) { got = append(got, origin) })
	// A forged sequenced frame from a non-sequencer peer is ignored.
	g.onWire("mallory", encodeFrame(kindSequenced, ctlApp, "mallory", 0, []byte("x")))
	if len(got) != 0 {
		t.Fatal("accepted sequenced frame from non-sequencer")
	}
	g.onWire("seq", encodeFrame(kindSequenced, ctlApp, "alice", 0, []byte("x")))
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("got %v", got)
	}
}

func TestSendWithoutSequencerErrors(t *testing.T) {
	g := New("me", Total, "seq")
	if err := g.Send([]byte("x")); err != ErrNoSequencer {
		t.Fatalf("err = %v", err)
	}
}

func TestMeshValidation(t *testing.T) {
	clk := vclock.NewManual(t0)
	if _, err := NewMesh([]string{"a", "b"}, clk, netsim.Config{}, Total, "nobody"); err == nil {
		t.Fatal("bogus sequencer accepted")
	}
}

func TestMembers(t *testing.T) {
	clk := vclock.NewManual(t0)
	m, _ := meshWithRecorders(t, []string{"a", "b", "c"}, clk, netsim.Config{}, FIFO, "")
	got := m.Groups["a"].Members()
	if len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
	if m.Groups["a"].Self() != "a" {
		t.Fatal("self")
	}
}

func TestMalformedFramesDropped(t *testing.T) {
	g := New("me", FIFO, "")
	delivered := 0
	g.OnDeliver(func(string, []byte) { delivered++ })
	g.onWire("peer", []byte{})
	g.onWire("peer", []byte{0})
	g.onWire("peer", []byte{0, 0, 200, 'x'})
	g.onWire("peer", []byte{77, 0, 0})
	g.onWire("peer", []byte{0, 9, 0})
	if delivered != 0 {
		t.Fatal("malformed frame delivered")
	}
}

// Property: under arbitrary interleavings of senders over a clean
// network, FIFO multicast preserves every sender's order at every member.
func TestQuickFIFOOrderProperty(t *testing.T) {
	f := func(schedule []uint8, seed int64) bool {
		if len(schedule) == 0 {
			return true
		}
		if len(schedule) > 60 {
			schedule = schedule[:60]
		}
		clk := vclock.NewManual(t0)
		names := []string{"a", "b", "c"}
		m, err := NewMesh(names, clk, netsim.Config{
			Latency: 20 * time.Microsecond, Seed: seed,
		}, FIFO, "")
		if err != nil {
			return false
		}
		defer m.Close()
		recs := make(map[string]*recorder)
		for _, n := range names {
			recs[n] = &recorder{}
			recs[n].hook(m.Groups[n])
		}
		counts := map[string]int{}
		for _, pick := range schedule {
			sender := names[int(pick)%len(names)]
			msg := fmt.Sprintf("%d", counts[sender])
			counts[sender]++
			if err := m.Groups[sender].Send([]byte(msg)); err != nil {
				return false
			}
			clk.Advance(time.Duration(pick) * time.Microsecond)
		}
		clk.Advance(time.Second)
		for _, n := range names {
			next := map[string]int{}
			seen := 0
			for _, entry := range recs[n].list() {
				var origin string
				var k int
				if _, err := fmt.Sscanf(entry, "%1s:%d", &origin, &k); err != nil {
					return false
				}
				if k != next[origin] {
					return false
				}
				next[origin]++
				seen++
			}
			if seen != len(schedule) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
