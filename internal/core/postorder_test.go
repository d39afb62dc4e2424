package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/netsim"
)

// windowSeq parses c's own wire image far enough to read the window
// layer's frame type and sequence number. It reports problems with
// t.Error: taps run on whichever goroutine flushes.
func windowSeq(t *testing.T, c *Conn, wire []byte) (seq uint32, data bool) {
	t.Helper()
	pre, err := DecodePreamble(wire)
	if err != nil {
		t.Error(err)
		return 0, false
	}
	off := PreambleSize
	if pre.ConnIDPresent {
		off += c.plan.size[header.ConnID]
	}
	proto := wire[off : off+c.plan.size[header.ProtoSpec]]
	var seqF, typF header.Handle
	for _, f := range c.Schema().Fields() {
		if f.Layer() == "window" && f.Name() == "seq" {
			seqF = f
		}
		if f.Layer() == "window" && f.Name() == "type" {
			typF = f
		}
	}
	if !seqF.Valid() || !typF.Valid() {
		t.Error("window seq/type fields not in the schema")
		return 0, false
	}
	return uint32(seqF.Read(proto, pre.Order)), typF.Read(proto, pre.Order) == layers.TypeData
}

// TestSendAfterBlockedWaitDrainsPost is the regression test for the §3.1
// hole in Conn.Send: it drained the send side's post-processing before
// the BlockOnBackpressure wait but not after it. A waiter woken by
// kickBacklog — which queues a postSend and broadcasts — then stamped its
// message from a prediction that postSend had not advanced yet: two data
// frames with one sequence number, the second dropped as a duplicate.
func TestSendAfterBlockedWaitDrainsPost(t *testing.T) {
	var (
		r      *rig
		tapMu  sync.Mutex
		frames []uint32 // window seq of each data frame A put on the wire
	)
	r = newRig(t, netsim.Config{}, func(cfgA, cfgB *Config) {
		cfgA.MaxBacklog, cfgA.BlockOnBackpressure = 2, true
		cfgA.Transport = &frameTap{Transport: cfgA.Transport, onSend: func(wire []byte) {
			if seq, data := windowSeq(t, r.a, wire); data {
				tapMu.Lock()
				frames = append(frames, seq)
				tapMu.Unlock()
			}
		}}
	})
	a, fromA := r.a, r.fromA

	// Hold the send gate shut so two messages fill the backlog and the
	// third sender blocks.
	a.mu.Lock()
	a.DisableSend()
	a.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- a.Send([]byte{2}) }()
	// The sender creates backlogCond and enters Wait under one hold of
	// a.mu, so seeing the cond from under the lock means it is waiting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		waiting := a.backlogCond != nil
		a.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never blocked")
		}
		time.Sleep(time.Millisecond)
	}

	// Open the gate and pack the backlog out by hand, the way settle does
	// before it drops a.mu for an application callback: the packed frame
	// is queued for the wire, its postSend is still pending, and the
	// blocked sender has been woken.
	a.mu.Lock()
	a.EnableSend()
	a.kickBacklog()
	if a.send.pendingLen() == 0 {
		a.mu.Unlock()
		t.Fatal("kickBacklog left no postSend pending; the scenario needs one")
	}
	a.mu.Unlock()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked send finished with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send never released")
	}
	a.Flush()

	tapMu.Lock()
	seen := map[uint32]bool{}
	for _, seq := range frames {
		if seen[seq] {
			t.Errorf("two data frames carry window seq %d (all: %v)", seq, frames)
		}
		seen[seq] = true
	}
	tapMu.Unlock()
	if got := fromA.count(); got != 3 {
		t.Fatalf("delivered %d messages, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if fromA.get(i)[0] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, fromA.get(i))
		}
	}
}

// TestPostSendPrecedesWire pins the ordering the one post-processing
// schedule rests on: when the k-th data frame reaches the transport, the
// sending window layer has already saved it (PostSend ran: Stats.Sent >=
// k). A transport may deliver synchronously, so the ack for frame k can
// come back inside that very Send call; it must find the frame in the
// window. This is why "wire first, post later" cannot be had by swapping
// settle and flushTx.
func TestPostSendPrecedesWire(t *testing.T) {
	var (
		r      *rig
		win    *layers.Window
		first  uint32 // window seq of the first data frame
		frames int    // data frames seen (everything here runs on the test goroutine)
	)
	r = newRig(t, netsim.Config{Latency: 50 * time.Microsecond}, func(cfgA, cfgB *Config) {
		cfgA.Transport = &frameTap{Transport: cfgA.Transport, onSend: func(wire []byte) {
			seq, data := windowSeq(t, r.a, wire)
			if !data {
				return
			}
			if frames == 0 {
				first = seq
			}
			frames++
			k := uint64(seq-first) + 1 // by sequence number, so a retransmission counts once
			r.a.mu.Lock()
			sent := win.Stats.Sent
			r.a.mu.Unlock()
			if sent < k {
				t.Errorf("data frame %d on the wire with window Stats.Sent = %d: PostSend has not run", k, sent)
			}
		}}
	})
	a, fromA := r.a, r.fromA
	for _, l := range a.Layers() {
		if w, ok := l.(*layers.Window); ok {
			win = w
		}
	}

	// 16 single frames leave from Send; the rest wait behind the closed
	// window and leave as packed frames from the ack deliveries.
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && fromA.count() < n; i++ {
		r.settleNet(time.Millisecond)
	}
	if got := fromA.count(); got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	if st := a.Stats(); st.PackedBatches == 0 || frames <= int(st.PackedBatches) {
		t.Fatalf("tap saw %d data frames, %d packed: want single and packed frames both", frames, st.PackedBatches)
	}
}

// windowOf returns c's window layer.
func windowOf(t *testing.T, c *Conn) *layers.Window {
	t.Helper()
	for _, l := range c.Layers() {
		if w, ok := l.(*layers.Window); ok {
			return w
		}
	}
	t.Fatal("no window layer in the stack")
	return nil
}

// TestTimerSeesNoQueuedPost: a timer enters the connection like any other
// operation. One that fires inside a delivery callback — while that
// delivery's post-processing, and the post-send of a reply sent from the
// callback, are still queued — runs only after both have completed
// (§3.1: "before the next send or delivery operation").
func TestTimerSeesNoQueuedPost(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	b := r.b
	recvLeft, sendLeft, fired := 0, 0, false
	b.mu.Lock()
	b.AfterFunc(time.Millisecond, func() {
		fired = true
		recvLeft, sendLeft = b.recv.pendingLen(), b.send.pendingLen()
	})
	b.mu.Unlock()
	nested := false
	b.OnDeliver(func(p []byte) {
		r.fromA.add(p)
		if nested {
			return
		}
		nested = true
		if err := b.Send(p); err != nil {
			t.Error(err)
		}
		r.clk.Advance(2 * time.Millisecond)
	})
	if err := r.a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer never fired")
	}
	if recvLeft != 0 || sendLeft != 0 {
		t.Fatalf("timer ran with post-processing queued: recv %d, send %d", recvLeft, sendLeft)
	}
}

// checkSeq asserts that s holds exactly the payloads 0..n-1, each a
// big-endian uint32, in order.
func checkSeq(t *testing.T, dir string, s *sink, n int) {
	t.Helper()
	if got := s.count(); got != n {
		t.Fatalf("%s: delivered %d messages, want %d", dir, got, n)
	}
	for i := 0; i < n; i++ {
		if got := binary.BigEndian.Uint32(s.get(i)); got != uint32(i) {
			t.Fatalf("%s: message %d is %d: duplicated, lost or reordered", dir, i, got)
		}
	}
}

func seqPayload(i uint32) []byte { return binary.BigEndian.AppendUint32(nil, i) }

// TestAdvanceInsideCallbackExactlyOnce advances the clock 2 s from inside
// a delivery callback over a 1 ms link while both directions have unacked
// data (and backlogs): every delivery, delayed ack and retransmission
// timeout in flight fires inside the callback. Delivery stays
// exactly-once and in order both ways.
func TestAdvanceInsideCallbackExactlyOnce(t *testing.T) {
	r := newRig(t, netsim.Config{Latency: time.Millisecond}, nil)
	nested := false
	r.b.OnDeliver(func(p []byte) {
		r.fromA.add(p)
		if !nested {
			nested = true
			r.clk.Advance(2 * time.Second)
		}
	})
	const n = 40 // beyond the 16-frame window
	for i := uint32(0); i < n; i++ {
		if err := r.a.Send(seqPayload(i)); err != nil {
			t.Fatal(err)
		}
		if err := r.b.Send(seqPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100 && (r.fromA.count() < n || r.fromB.count() < n); i++ {
		r.settleNet(100 * time.Millisecond)
	}
	if !nested {
		t.Fatal("the callback never advanced the clock")
	}
	checkSeq(t, "A→B", r.fromA, n)
	checkSeq(t, "B→A", r.fromB, n)
}

// TestEchoFromCallbackAcksRequest: a reply sent from the delivery
// callback is stamped after the request's post-delivery has run, so its
// piggybacked ack covers the request — over a perfect link the requester
// holds nothing unacked once the echo is back.
func TestEchoFromCallbackAcksRequest(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	r.b.OnDeliver(func(p []byte) {
		r.fromA.add(p)
		if err := r.b.Send(p); err != nil {
			t.Error(err)
		}
	})
	win := windowOf(t, r.a)
	for i := 0; i < 10; i++ {
		if err := r.a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if got := r.fromB.count(); got != i+1 {
			t.Fatalf("round trip %d: %d echoes back", i, got)
		}
		r.a.mu.Lock()
		out := win.Outstanding()
		r.a.mu.Unlock()
		if out != 0 {
			t.Fatalf("round trip %d: %d frame(s) unacked after the echo, want 0", i, out)
		}
	}
}

// TestSeededInterleavings is a small deterministic simulation of one
// connection pair over a lossy 50 µs link: per seed, a random mix of
// sends from the test and from delivery callbacks, clock advances from
// inside callbacks and from outside, and Flush. Delivery stays
// exactly-once and in order both ways, and a probe timer armed at every
// step always fires with both post-processing queues empty.
func TestSeededInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runInterleaving(t, seed) })
	}
}

func runInterleaving(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := newRig(t, netsim.Config{Latency: 50 * time.Microsecond, LossRate: 0.01, Seed: seed}, nil)
	conns := [2]*Conn{r.a, r.b}
	got := [2]*sink{r.fromB, r.fromA} // got[i]: delivered at conns[i]
	var (
		sent       [2]uint32 // messages conns[i] has sent
		cbSends    [2]int    // sends owed by conns[i]'s next deliveries
		cbAdvances int       // clock advances owed by the next deliveries
		dirty      int       // probe timers that found post-processing queued
	)
	// Everything runs on this goroutine: the link and every timer are
	// driven by the manual clock.
	send := func(i int) {
		if err := conns[i].Send(seqPayload(sent[i])); err != nil {
			t.Fatalf("send from %d: %v", i, err)
		}
		sent[i]++
	}
	for i := range conns {
		conns[i].OnDeliver(func(p []byte) {
			got[i].add(p)
			if cbSends[i] > 0 {
				cbSends[i]--
				send(i)
			}
			if cbAdvances > 0 {
				cbAdvances--
				r.clk.Advance(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		})
	}
	for step := 0; step < 300; step++ {
		i := rng.Intn(2)
		c := conns[i]
		c.mu.Lock()
		c.AfterFunc(time.Duration(rng.Intn(500))*time.Microsecond, func() {
			if c.recv.pendingLen() != 0 || c.send.pendingLen() != 0 {
				dirty++
			}
		})
		c.mu.Unlock()
		switch rng.Intn(5) {
		case 0:
			send(i)
		case 1: // a reply from i's next delivery callback
			cbSends[i]++
			send(1 - i)
		case 2: // an advance from the next delivery callback
			cbAdvances++
			send(1 - i)
		case 3:
			c.Flush()
		case 4:
			r.clk.Advance(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}
	cbSends, cbAdvances = [2]int{}, 0
	for k := 0; k < 600 && (got[1].count() < int(sent[0]) || got[0].count() < int(sent[1])); k++ {
		r.clk.Advance(100 * time.Millisecond)
	}
	checkSeq(t, "A→B", got[1], int(sent[0]))
	checkSeq(t, "B→A", got[0], int(sent[1]))
	if dirty > 0 {
		t.Fatalf("%d timer(s) fired with post-processing queued", dirty)
	}
}
