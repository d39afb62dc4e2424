package paccel_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"paccel"
)

// TestFacadeEndToEnd drives the public API exactly as the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	alice, err := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("A")})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("B")})
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	a, err := alice.Dial(paccel.PeerSpec{
		Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"),
		LocalPort: 1, RemotePort: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bob.Dial(paccel.PeerSpec{
		Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"),
		LocalPort: 2, RemotePort: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	b.OnDeliver(func(p []byte) { got <- append([]byte(nil), p...) })
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, []byte("hello")) {
			t.Fatalf("got %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
	st := a.Stats()
	if st.FastSends != 1 || st.ConnIDSent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFacadeTelemetry drives the observability surface end to end: a
// recorder installed through Config.Telemetry fills histograms and the
// event ring, the torn-read-free EndpointStats come from Snapshot(), and
// the debug HTTP endpoint serves the JSON view.
func TestFacadeTelemetry(t *testing.T) {
	rec := paccel.NewTelemetry(paccel.TelemetryOptions{})
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	net.SetTelemetry(rec)
	mk := func(addr string) *paccel.Endpoint {
		ep, err := paccel.NewEndpoint(paccel.Config{
			Transport: net.Endpoint(addr),
			Telemetry: rec, TelemetrySampleEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	alice, bob := mk("A"), mk("B")
	a, err := alice.Dial(paccel.PeerSpec{Addr: "B", LocalID: []byte("alice"), RemoteID: []byte("bob"), LocalPort: 1, RemotePort: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Dial(paccel.PeerSpec{Addr: "A", LocalID: []byte("bob"), RemoteID: []byte("alice"), LocalPort: 2, RemotePort: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := a.Send([]byte("observe")); err != nil {
			t.Fatal(err)
		}
	}

	snap := rec.Snapshot(false)
	if snap.EventsTotal < 2 { // the two Dials log "active" transitions
		t.Fatalf("EventsTotal = %d, want >= 2", snap.EventsTotal)
	}
	var sendPre paccel.TelemetryHistogram
	for _, h := range snap.Ops {
		if h.Op == "send_pre" {
			sendPre = h
		}
	}
	if sendPre.Count < 8 {
		t.Fatalf("send_pre count = %d, want >= 8 at SampleEvery=1", sendPre.Count)
	}
	if st := bob.Snapshot(); st.Received == 0 {
		t.Fatalf("endpoint snapshot = %+v, want Received > 0", st)
	}

	srv, err := paccel.ServeTelemetry("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got paccel.TelemetrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.EventsTotal != rec.Snapshot(false).EventsTotal {
		t.Fatalf("served EventsTotal = %d", got.EventsTotal)
	}
}

func TestFacadeErrorsExported(t *testing.T) {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	ep, err := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("X")})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ep.Dial(paccel.PeerSpec{Addr: "Y", LocalID: []byte("x"), RemoteID: []byte("y")})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("z")); !errors.Is(err, paccel.ErrConnClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeGroup(t *testing.T) {
	mesh, err := paccel.NewGroupMesh([]string{"a", "b"}, paccel.SimConfig{}, paccel.GroupTotal, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	got := make(chan string, 2)
	mesh.Groups["b"].OnDeliver(func(origin string, p []byte) { got <- origin + ":" + string(p) })
	if err := mesh.Groups["a"].Send([]byte("ordered")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "a:ordered" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestFacadeUDP(t *testing.T) {
	tr, err := paccel.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tr.LocalAddr() == "" {
		t.Fatal("no local addr")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDefaults(t *testing.T) {
	if paccel.DefaultStack == nil {
		t.Fatal("DefaultStack nil")
	}
	cfg := paccel.PaperSimConfig()
	if cfg.Latency != 35*time.Microsecond {
		t.Fatalf("paper latency = %v", cfg.Latency)
	}
	if cfg.BitRate != 140e6 {
		t.Fatalf("paper bit rate = %v", cfg.BitRate)
	}
}

// TestFragThresholdBoundsPacking checks StackOptions.FragThreshold also
// bounds packing: messages backlogged behind a closed window are packed no
// larger than the threshold, so the fragmenter never splits a packed
// message and every message arrives on its own, in order.
func TestFragThresholdBoundsPacking(t *testing.T) {
	net := paccel.NewSimNetwork(paccel.SimConfig{Latency: 500 * time.Microsecond})
	build := paccel.BuildStack(paccel.StackOptions{FragThreshold: 256, WindowSize: 2})
	mk := func(addr string) *paccel.Endpoint {
		ep, err := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint(addr), Build: build})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	epA, epB := mk("A"), mk("B")
	a, err := epA.Dial(paccel.PeerSpec{Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"), LocalPort: 1, RemotePort: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(paccel.PeerSpec{Addr: "A", LocalID: []byte("b"), RemoteID: []byte("a"), LocalPort: 2, RemotePort: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	got := make(chan []byte, 2*n)
	b.OnDeliver(func(p []byte) { got <- append([]byte(nil), p...) })
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 49)
		if err := a.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case p := <-got:
			if want := bytes.Repeat([]byte{byte(i)}, 49); !bytes.Equal(p, want) {
				t.Fatalf("callback %d: %d bytes starting %#x, want message %d on its own", i, len(p), p[0], i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout after %d/%d messages", i, n)
		}
	}
	if st := a.Stats(); st.PackedBatches == 0 {
		t.Fatal("no packing happened; test lost its purpose")
	}
}

func TestBuildStackOptions(t *testing.T) {
	net := paccel.NewSimNetwork(paccel.SimConfig{})
	var oneWays int
	build := paccel.BuildStack(paccel.StackOptions{
		WindowSize:    4,
		FragThreshold: 64,
		AdaptiveRTO:   true,
		Heartbeat:     20 * time.Millisecond,
		Stamp:         func(time.Duration) { oneWays++ },
	})
	mk := func(addr string) *paccel.Endpoint {
		ep, err := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint(addr), Build: build})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	epA, epB := mk("A"), mk("B")
	a, err := epA.Dial(paccel.PeerSpec{Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"), LocalPort: 1, RemotePort: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := epB.Dial(paccel.PeerSpec{Addr: "A", LocalID: []byte("b"), RemoteID: []byte("a"), LocalPort: 2, RemotePort: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 4)
	b.OnDeliver(func(p []byte) { got <- append([]byte(nil), p...) })
	// Oversized payload exercises the custom frag threshold.
	big := bytes.Repeat([]byte("z"), 200)
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, big) {
			t.Fatal("fragmented payload corrupted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
	// A small (unfragmented) message passes the stamp layer and samples
	// one-way latency; fragments bypass it (reassembled synthetically).
	if err := a.Send([]byte("small")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("small send timeout")
	}
	if oneWays == 0 {
		t.Fatal("stamp callback never fired")
	}
}
