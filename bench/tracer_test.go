package main

import (
	"testing"

	"paccel"
	"paccel/internal/core"
)

// capabilities lists which of the engine's optional transport interfaces
// t implements; the engine discovers each by type assertion.
func capabilities(t paccel.Transport) [5]bool {
	_, batch := t.(core.BatchTransport)
	_, batchTo := t.(core.BatchToTransport)
	_, recvBatch := t.(core.RecvBatcher)
	_, multiQueue := t.(core.MultiQueueTransport)
	_, coalesce := t.(core.Coalescer)
	return [5]bool{batch, batchTo, recvBatch, multiQueue, coalesce}
}

// A tap that hid a capability would make the engine fall back to
// per-datagram sends, silently, and the traced pass would measure a
// different program.
func TestTapKeepsCapabilities(t *testing.T) {
	udp, err := paccel.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	sim := paccel.NewSimNetwork(paccel.SimConfig{}).Endpoint("A")
	for name, inner := range map[string]paccel.Transport{"udp": udp, "netsim": sim} {
		wrapped, _, err := wrapTransport(inner, newTracer(), spanUDPSend)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capabilities(wrapped), capabilities(inner); got != want {
			t.Errorf("%s: tap implements [batch batchTo recvBatch multiQueue coalesce] = %v, the transport %v", name, got, want)
		}
	}
	if _, _, err := wrapTransport(bareTransport{sim}, newTracer(), spanNetsimSend); err == nil {
		t.Error("a transport with an unknown capability set was wrapped; want an error, not a silent downgrade")
	}
}

// bareTransport hides every optional interface of the transport it holds.
type bareTransport struct{ paccel.Transport }

// The batched flush path must run the same way under the tap: on
// stream_udp_8b both passes drain their transmit queues through SendBatch,
// in bursts of the same size.
func TestTracedStreamBatchesLikeUntraced(t *testing.T) {
	w := findWorkload("stream_udp_8b")
	h := newHarness(1996, 1, 1<<20)
	measure := func(tr *tracer) (sends, perBatch float64) {
		h.rec.reset()
		fails := &failCounts{}
		g := h.newGen(w, tr, fails)
		if err := g.setup(); err != nil {
			t.Fatal(err)
		}
		defer g.close()
		if tr != nil {
			tr.on = true
		}
		g.run(nanos() + int64(h.window))
		g.drain()
		var c counts
		g.collect(&c)
		if n := fails.total(); n != 0 {
			t.Errorf("%d operations failed", n)
		}
		return float64(c.batchSends), ratio(float64(c.batchDatagrams), float64(c.batchSends))
	}
	plainSends, plainPer := measure(nil)
	tapSends, tapPer := measure(newTracer())
	if plainSends == 0 || tapSends == 0 {
		t.Fatalf("batch sends: untraced %v, traced %v; both passes must batch", plainSends, tapSends)
	}
	// Burst sizes depend on how the sender and the two read loops
	// interleave, so they agree in kind, not to the digit.
	if tapPer < plainPer/2 || tapPer > plainPer*2 {
		t.Errorf("datagrams per batch: untraced %.2f, traced %.2f", plainPer, tapPer)
	}
}

func TestSelfTimes(t *testing.T) {
	// op ⊃ core.send ⊃ netsim.send ⊃ core.recv, plus a span of another
	// goroutine that overlaps core.send without being inside it.
	spans := []span{
		{start: 0, end: 1000, op: 1, kind: spanOp},
		{start: 100, end: 900, op: 1, kind: spanCoreSend},
		{start: 200, end: 800, op: 1, kind: spanNetsimSend},
		{start: 300, end: 700, op: 1, kind: spanCoreRecv},
		{start: 850, end: 1200, op: 1, kind: spanAppCallback},
	}
	l := selfTimes(spans, spanCost{}, true)
	want := map[uint8]float64{spanOp: 200, spanCoreSend: 200, spanNetsimSend: 200, spanCoreRecv: 400, spanAppCallback: 350}
	for k, v := range want {
		if l.self[k] != v {
			t.Errorf("%s self = %v, want %v", spanNames[k], l.self[k], v)
		}
	}
	if l.ops != 1 {
		t.Errorf("ops = %d, want 1", l.ops)
	}
	// With a price per span, each span gives back what it cost itself and
	// what its children cost it.
	l = selfTimes(spans, spanCost{total: 30, inside: 10}, true)
	if got := l.self[spanCoreSend]; got != 200-10-20 {
		t.Errorf("core.send self with span cost = %v, want 170", got)
	}
	if got := l.self[spanOp]; got != 200-20 {
		t.Errorf("op self with span cost = %v, want 180", got)
	}
}
