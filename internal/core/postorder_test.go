package core

import (
	"sync"
	"testing"
	"time"

	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/netsim"
)

// frameTap shows every outgoing datagram to onSend before forwarding it.
// It deliberately hides the inner transport's SendBatch, so the engine
// hands it one wire image per call.
type frameTap struct {
	Transport
	onSend func(wire []byte)
}

func (f *frameTap) Send(dst string, d []byte) error {
	f.onSend(d)
	return f.Transport.Send(dst, d)
}

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
		off += c.cidN
	}
	proto := wire[off : off+c.protoN]
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
