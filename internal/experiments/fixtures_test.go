package experiments

import (
	"fmt"
	"testing"

	"paccel/internal/core"
	"paccel/internal/layers"
	"paccel/internal/netsim"
)

// TestPairFixtures moves messages through the connected pairs the root
// benchmarks stand on: StreamOneWay returns once B has every message of
// its stream, and the baseline pair echoes in order.
func TestPairFixtures(t *testing.T) {
	p, err := NewPair(PairOptions{Build: LeanStack})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 50
	msgs, bytes, err := p.StreamOneWay(n, []byte("8 bytes!"))
	if err != nil {
		t.Fatal(err)
	}
	if msgs <= 0 || bytes != 8*msgs {
		t.Fatalf("StreamOneWay = %v msgs/s, %v B/s", msgs, bytes)
	}
	if st := p.A.Stats(); st.Sent != n {
		t.Fatalf("A sent %d, want %d", st.Sent, n)
	}

	bp, err := NewBaselinePair(netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	var echoed []string
	bp.B.OnDeliver(func(b []byte) {
		if err := bp.B.Send(append([]byte("re: "), b...)); err != nil {
			t.Error(err)
		}
	})
	bp.A.OnDeliver(func(b []byte) { echoed = append(echoed, string(b)) })
	for i := 0; i < 3; i++ {
		if err := bp.A.Send([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(echoed) != "[re: 0 re: 1 re: 2]" {
		t.Fatalf("baseline echoes = %q", echoed)
	}
}

// TestRecvHarness checks the receive replay fixture: each Deliver routes
// its connection's captured frame to that connection alone, and a server
// connection's reply leaves through the tapped transport.
func TestRecvHarness(t *testing.T) {
	h, err := NewRecvHarness(3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for k := 0; k < 4; k++ {
		h.Deliver(1)
	}
	h.Deliver(2)
	// Each count includes the capture send.
	for i, want := range []uint64{1, 5, 2} {
		if got := h.Delivered(i); got != want {
			t.Fatalf("Delivered(%d) = %d, want %d", i, got, want)
		}
	}
	if err := h.Conns[0].Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	if st := h.Conns[0].Stats(); st.Sent != 1 || h.Server.Snapshot().TxErrors != 0 {
		t.Fatalf("reply: conn stats %+v, endpoint stats %+v", st, h.Server.Snapshot())
	}
}

// TestAcceptAllMirrorsIdentification pins the shed harness's accept
// hook: the peer's identification, stripped of its padding, becomes the
// mirror-image spec addressed to the datagram's source.
func TestAcceptAllMirrorsIdentification(t *testing.T) {
	spec, ok := acceptAll(layers.IdentInfo{
		Src: []byte("stranger\x00\x00"), Dst: []byte("server\x00"),
		SrcPort: 3000, DstPort: 2000, Epoch: 4,
	}, "Z")
	want := core.PeerSpec{
		Addr: "Z", LocalID: []byte("server"), RemoteID: []byte("stranger"),
		LocalPort: 2000, RemotePort: 3000, Epoch: 4,
	}
	if !ok || fmt.Sprint(spec) != fmt.Sprint(want) {
		t.Fatalf("acceptAll = %+v, %v; want %+v, true", spec, ok, want)
	}
}
