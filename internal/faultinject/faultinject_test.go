package faultinject

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

var t0 = time.Date(1996, 8, 28, 0, 0, 0, 0, time.UTC)

// fakeTransport records sends and lets tests push receives through the
// injector's installed handler.
type fakeTransport struct {
	mu      sync.Mutex
	addr    string // LocalAddr; "" reads as "fake"
	failDst string // Send to this destination fails
	dsts    []string
	sent    [][]byte
	handler func(src string, datagram []byte)
	closed  bool
}

var errFakeSend = errors.New("fakeTransport: send refused")

func (f *fakeTransport) Send(dst string, datagram []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if dst == f.failDst {
		return errFakeSend
	}
	f.dsts = append(f.dsts, dst)
	f.sent = append(f.sent, append([]byte(nil), datagram...))
	return nil
}

func (f *fakeTransport) SetHandler(h func(src string, datagram []byte)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
}

func (f *fakeTransport) LocalAddr() string {
	if f.addr == "" {
		return "fake"
	}
	return f.addr
}

func (f *fakeTransport) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeTransport) sentCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

func (f *fakeTransport) sentAt(i int) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[i]
}

// inject pushes a datagram up through the injector as if the inner
// transport had received it.
func (f *fakeTransport) inject(src string, datagram []byte) {
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	if h != nil {
		h(src, datagram)
	}
}

func TestNthDrop(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Drop, Direction: Send, Nth: 2})
	for i := 0; i < 3; i++ {
		if err := ft.Send("B", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if inner.sentCount() != 2 {
		t.Fatalf("inner got %d datagrams, want 2", inner.sentCount())
	}
	if inner.sentAt(0)[0] != 0 || inner.sentAt(1)[0] != 2 {
		t.Fatalf("wrong datagrams passed: %v %v", inner.sentAt(0), inner.sentAt(1))
	}
	if st := ft.Stats(); st.Dropped != 1 || st.Sent != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEveryAndCount(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Drop, Direction: Send, Every: 3, Count: 2})
	for i := 0; i < 12; i++ {
		ft.Send("B", []byte{byte(i)})
	}
	// Fires on the 3rd and 6th only (Count caps it).
	if got := ft.RuleFired(0); got != 2 {
		t.Fatalf("rule fired %d times, want 2", got)
	}
	if inner.sentCount() != 10 {
		t.Fatalf("inner got %d, want 10", inner.sentCount())
	}
}

func TestRateIsDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		inner := &fakeTransport{}
		ft := New(inner, nil, seed, Rule{Kind: Drop, Rate: 0.5})
		for i := 0; i < 400; i++ {
			ft.Send("B", []byte{byte(i)})
		}
		return ft.Stats().Dropped
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 400 {
		t.Fatalf("rate 0.5 dropped %d of 400", a)
	}
	if c := run(43); c == a {
		t.Logf("different seeds coincided (%d); unlikely but legal", c)
	}
}

func TestCorruptSendUsesCopy(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Corrupt, Direction: Send, Offset: -1, BitMask: 0x01})
	orig := []byte{1, 2, 3, 4}
	keep := append([]byte(nil), orig...)
	if err := ft.Send("B", orig); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, keep) {
		t.Fatalf("caller's buffer was mutated: %v", orig)
	}
	if got := inner.sentAt(0); got[3] != 4^0x01 {
		t.Fatalf("inner saw %v, want last byte flipped", got)
	}
	if st := ft.Stats(); st.Corrupted != 1 {
		t.Fatalf("Corrupted = %d", st.Corrupted)
	}
}

func TestCorruptRecvNeverMutatesBorrowedBuffer(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Corrupt, Direction: Recv, Offset: 0, BitMask: 0x80})
	var got []byte
	ft.SetHandler(func(src string, d []byte) { got = append([]byte(nil), d...) })
	borrowed := []byte{9, 9, 9} // the transport's pooled receive buffer
	keep := append([]byte(nil), borrowed...)
	inner.inject("B", borrowed)
	if !bytes.Equal(borrowed, keep) {
		t.Fatalf("borrowed receive buffer was mutated: %v", borrowed)
	}
	if len(got) != 3 || got[0] != 9^0x80 {
		t.Fatalf("handler saw %v, want first byte flipped", got)
	}
}

func TestTruncate(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Truncate, Direction: Send, TruncateTo: 5})
	ft.Send("B", make([]byte, 100))
	if got := len(inner.sentAt(0)); got != 5 {
		t.Fatalf("truncated to %d bytes, want 5", got)
	}
	if st := ft.Stats(); st.Truncated != 1 {
		t.Fatalf("Truncated = %d", st.Truncated)
	}
}

func TestStallAndRelease(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Stall, Direction: Send, Count: 2})
	for i := 0; i < 3; i++ {
		ft.Send("B", []byte{byte(i)})
	}
	if inner.sentCount() != 1 || inner.sentAt(0)[0] != 2 {
		t.Fatalf("expected only the third datagram through, got %d", inner.sentCount())
	}
	if ft.StalledCount() != 2 {
		t.Fatalf("StalledCount = %d", ft.StalledCount())
	}
	if n := ft.ReleaseStalled(); n != 2 {
		t.Fatalf("released %d", n)
	}
	if inner.sentCount() != 3 {
		t.Fatalf("after release inner got %d", inner.sentCount())
	}
	// Stalled datagrams come out in the order they were held.
	if inner.sentAt(1)[0] != 0 || inner.sentAt(2)[0] != 1 {
		t.Fatalf("release order wrong: %v %v", inner.sentAt(1), inner.sentAt(2))
	}
}

func TestStallRecvCopiesBorrowedBuffer(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Stall, Direction: Recv, Count: 1})
	var got []byte
	ft.SetHandler(func(src string, d []byte) { got = append([]byte(nil), d...) })
	borrowed := []byte{7, 7}
	inner.inject("B", borrowed)
	borrowed[0] = 0 // transport recycles its buffer after the call
	if ft.ReleaseStalled() != 1 {
		t.Fatal("nothing released")
	}
	if len(got) != 2 || got[0] != 7 {
		t.Fatalf("stalled datagram was not copied: %v", got)
	}
}

func TestPartition(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0)
	recvd := 0
	ft.SetHandler(func(src string, d []byte) { recvd++ })
	ft.SetPartitioned("B", true)
	ft.Send("B", []byte{1})
	inner.inject("B", []byte{2})
	if inner.sentCount() != 0 || recvd != 0 {
		t.Fatalf("partitioned traffic leaked: sent=%d recvd=%d", inner.sentCount(), recvd)
	}
	ft.Send("C", []byte{3}) // other peers unaffected
	if inner.sentCount() != 1 {
		t.Fatal("traffic to unpartitioned peer blocked")
	}
	ft.SetPartitioned("B", false)
	ft.Send("B", []byte{4})
	inner.inject("B", []byte{5})
	if inner.sentCount() != 2 || recvd != 1 {
		t.Fatalf("healed partition still dropping: sent=%d recvd=%d", inner.sentCount(), recvd)
	}
	if st := ft.Stats(); st.PartitionDropped != 2 {
		t.Fatalf("PartitionDropped = %d", st.PartitionDropped)
	}
}

func TestDelayHoldsUntilClockAdvance(t *testing.T) {
	clk := vclock.NewManual(t0)
	inner := &fakeTransport{}
	ft := New(inner, clk, 0, Rule{Kind: Delay, Direction: Send, Delay: 10 * time.Millisecond})
	data := []byte{1, 2, 3}
	ft.Send("B", data)
	data[0] = 99 // the injector must have copied; the caller owns data again
	if inner.sentCount() != 0 {
		t.Fatal("delayed datagram sent early")
	}
	clk.Advance(10 * time.Millisecond)
	if inner.sentCount() != 1 {
		t.Fatal("delayed datagram not sent after advance")
	}
	if got := inner.sentAt(0); got[0] != 1 {
		t.Fatalf("delayed send saw the caller's later mutation: %v", got)
	}
}

func TestDuplicateRecv(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Duplicate, Direction: Recv, Nth: 1})
	n := 0
	ft.SetHandler(func(src string, d []byte) { n++ })
	inner.inject("B", []byte{1})
	inner.inject("B", []byte{2})
	if n != 3 {
		t.Fatalf("handler ran %d times, want 3 (first duplicated)", n)
	}
}

func TestPeerMatch(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0, Rule{Kind: Drop, Peer: "B"})
	ft.Send("B", []byte{1})
	ft.Send("C", []byte{2})
	if inner.sentCount() != 1 || inner.sentAt(0)[0] != 2 {
		t.Fatalf("peer match wrong: %d through", inner.sentCount())
	}
}

func TestCloseDiscardsStalledAndDelayed(t *testing.T) {
	clk := vclock.NewManual(t0)
	inner := &fakeTransport{}
	// Rule sequence numbers are per rule: the delay rule first sees the
	// second datagram (the stall rule claimed the first), so Nth is 1.
	ft := New(inner, clk, 0,
		Rule{Kind: Stall, Direction: Send, Nth: 1},
		Rule{Kind: Delay, Direction: Send, Nth: 1, Delay: time.Millisecond})
	ft.Send("B", []byte{1})
	ft.Send("B", []byte{2})
	ft.Close()
	if ft.ReleaseStalled() != 0 {
		t.Fatal("released stalled datagrams after close")
	}
	clk.Advance(time.Millisecond)
	if inner.sentCount() != 0 {
		t.Fatal("delayed datagram sent after close")
	}
	if err := ft.Send("B", []byte{3}); err != ErrClosed {
		t.Fatalf("Send after close = %v", err)
	}
	if !inner.closed {
		t.Fatal("inner transport not closed")
	}
}

func TestSwapInnerRedirectsBothDirections(t *testing.T) {
	oldT := &fakeTransport{}
	ft := New(oldT, nil, 0, Rule{Kind: Drop, Direction: Send, Nth: 2})
	var mu sync.Mutex
	var got []string
	ft.SetHandler(func(src string, d []byte) {
		mu.Lock()
		got = append(got, src+":"+string(d))
		mu.Unlock()
	})
	if err := ft.Send("B", []byte("one")); err != nil {
		t.Fatal(err)
	}
	oldT.inject("B", []byte("up-old"))

	newT := &fakeTransport{addr: "moved"}
	if got := ft.LocalAddr(); got != "fake" {
		t.Fatalf("LocalAddr before swap = %q, want the old inner's", got)
	}
	ft.SwapInner(newT)
	if got := ft.LocalAddr(); got != "moved" {
		t.Fatalf("LocalAddr after swap = %q, want the new inner's", got)
	}

	// Sends leave through the new inner; the rule plan keeps counting
	// across the swap (the Nth=2 drop eats "two").
	if err := ft.Send("B", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send("B", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if oldT.sentCount() != 1 {
		t.Fatalf("old inner got %d sends after swap, want 1", oldT.sentCount())
	}
	if newT.sentCount() != 1 || !bytes.Equal(newT.sentAt(0), []byte("three")) {
		t.Fatalf("new inner got %d sends, want just %q", newT.sentCount(), "three")
	}

	// Receives follow the new inner; the abandoned path is detached.
	newT.inject("B", []byte("up-new"))
	oldT.inject("B", []byte("stale"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "B:up-old" || got[1] != "B:up-new" {
		t.Fatalf("handler saw %v", got)
	}
}

// TestSetTelemetry checks that every fired fault appends one
// injector-scoped EventFault naming its kind and direction, and that nil
// uninstalls the recorder.
func TestSetTelemetry(t *testing.T) {
	inner := &fakeTransport{}
	ft := New(inner, nil, 0,
		Rule{Kind: Drop, Direction: Send, Nth: 1},
		Rule{Kind: Duplicate, Direction: Recv, Nth: 1})
	rec := telemetry.New(telemetry.Options{})
	ft.SetTelemetry(rec)
	ft.SetHandler(func(string, []byte) {})
	if err := ft.Send("B", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	inner.inject("B", []byte("twice"))
	ft.SetTelemetry(nil)
	ft.SetPartitioned("B", true)
	if err := ft.Send("B", []byte("cut")); err != nil {
		t.Fatal(err)
	}
	var causes []string
	for _, e := range rec.Snapshot(false).Events {
		if e.Kind != telemetry.EventFault || e.Conn != 0 {
			t.Fatalf("event %+v, want an injector-scoped fault", e)
		}
		causes = append(causes, e.Cause)
	}
	want := []string{"faultinject: injected drop on send", "faultinject: injected duplicate on recv"}
	if len(causes) != len(want) || causes[0] != want[0] || causes[1] != want[1] {
		t.Fatalf("causes = %q, want %q", causes, want)
	}
}

// TestSendBatchToPrefixContract checks the scattered-destination send: a
// fault-consumed datagram counts as sent, a length mismatch sends
// nothing, and an inner refusal reports the caller-space index it
// happened at, with nothing after it attempted.
func TestSendBatchToPrefixContract(t *testing.T) {
	inner := &fakeTransport{failDst: "bad"}
	ft := New(inner, nil, 0, Rule{Kind: Drop, Direction: Send, Peer: "C"})
	if sent, err := ft.SendBatchTo([]string{"B"}, nil); sent != 0 || err == nil {
		t.Fatalf("mismatched SendBatchTo = (%d, %v), want (0, error)", sent, err)
	}
	dsts := []string{"B", "C", "D", "bad", "B"}
	ds := [][]byte{[]byte("0"), []byte("1"), []byte("2"), []byte("3"), []byte("4")}
	sent, err := ft.SendBatchTo(dsts, ds)
	if sent != 3 || !errors.Is(err, errFakeSend) {
		t.Fatalf("SendBatchTo = (%d, %v), want (3, inner refusal)", sent, err)
	}
	if inner.sentCount() != 2 || string(inner.sentAt(0)) != "0" || string(inner.sentAt(1)) != "2" {
		t.Fatalf("inner got %q, want [0 2]", inner.sent)
	}
	if st := ft.Stats(); st.Sent != 4 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want Sent=4 Dropped=1", st)
	}
	if sent, err := ft.SendBatchTo(dsts[:3], ds[:3]); sent != 3 || err != nil {
		t.Fatalf("SendBatchTo = (%d, %v), want (3, nil)", sent, err)
	}
}
