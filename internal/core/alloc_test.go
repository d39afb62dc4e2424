package core

import (
	"sync"
	"testing"

	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// leanBuild is the checksum + fragmentation + identification stack: no
// window layer, so a one-way stream stays on the fast path with no acks
// flowing back (allocDefaultStack holds the default stack to the budget),
// and a datagram the transport rejects stays missing instead of being
// retransmitted.
var leanBuild = BuildStack(StackOptions{NoWindow: true})

// noBatch strips the SendBatch method from a transport so the engine's
// transmit flush falls back to one Send per datagram.
type noBatch struct{ Transport }

// allocTap remembers the last datagram the wrapped transport delivered,
// so the deliver subtest can capture a fast-path wire frame for replay.
type allocTap struct {
	Transport
	mu   sync.Mutex
	last []byte
}

func (t *allocTap) SetHandler(h func(src string, datagram []byte)) {
	t.Transport.SetHandler(func(src string, datagram []byte) {
		t.mu.Lock()
		t.last = append(t.last[:0], datagram...)
		t.mu.Unlock()
		h(src, datagram)
	})
}

// TestAllocBudget is the allocation gate for the engine's fast paths:
// steady-state send (flushed through SendBatch), send with the batch
// interface hidden (per-datagram flush), routed delivery, and an echoed
// message on the default four-layer stack must all run at exactly 0
// allocs/op — with telemetry disabled and with telemetry
// enabled at TelemetrySampleEvery=1, so the instrumentation itself
// (counter bump, clock reads, histogram record) is proven alloc-free too.
// CI runs this test on every push; a regression here fails the build
// before the perf gate ever sees it.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; CI runs this test in its own non-race step")
	}
	for _, tc := range []struct {
		name string
		rec  *telemetry.Recorder
	}{
		{"telemetry-off", nil},
		{"telemetry-on", telemetry.New(telemetry.Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("send", func(t *testing.T) { allocSend(t, tc.rec, false) })
			t.Run("send-unbatched", func(t *testing.T) { allocSend(t, tc.rec, true) })
			t.Run("deliver", func(t *testing.T) { allocDeliver(t, tc.rec) })
			t.Run("standalone-ack", func(t *testing.T) { allocStandaloneAck(t, tc.rec) })
			t.Run("default-stack", func(t *testing.T) { allocDefaultStack(t, tc.rec) })
			t.Run("dial", func(t *testing.T) { allocDial(t, tc.rec) })
			t.Run("shed", func(t *testing.T) { allocShed(t, tc.rec) })
			t.Run("fanout", func(t *testing.T) { allocFanout(t, tc.rec) })
			t.Run("secure-send", func(t *testing.T) { allocSecureSend(t, tc.rec) })
			t.Run("secure-deliver", func(t *testing.T) { allocSecureDeliver(t, tc.rec) })
		})
	}
}

// allocPair builds endpoints "A" and "B" from cfg, closed with the test,
// and dials the specAB connection between them.
func allocPair(t *testing.T, cfg func(addr string) Config) (a, b *Conn) {
	t.Helper()
	sa, sb := specAB()
	for _, side := range []struct {
		addr string
		spec PeerSpec
		conn **Conn
	}{{"A", sa, &a}, {"B", sb, &b}} {
		ep, err := NewEndpoint(cfg(side.addr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		if *side.conn, err = ep.Dial(side.spec); err != nil {
			t.Fatal(err)
		}
	}
	return a, b
}

// allocSend asserts the steady-state send over the instantaneous network
// is allocation-free. The far side's delivery runs inside the same call,
// so the budget covers the whole send+flush+route+deliver chain.
func allocSend(t *testing.T, rec *telemetry.Recorder, hideBatch bool) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	cfg := func(addr string) Config {
		var tr Transport = net.Endpoint(addr)
		if hideBatch {
			tr = noBatch{tr}
		}
		return Config{
			Transport: tr, Build: leanBuild,
			Telemetry: rec, TelemetrySampleEvery: 1,
		}
	}
	a, b := allocPair(t, cfg)
	b.OnDeliver(func([]byte) {})
	payload := make([]byte, 32)
	for i := 0; i < 256; i++ { // warm pools, prime prediction
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(500, func() {
		if err := a.Send(payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Fatalf("send fast path: %.2f allocs/op, want 0", allocs)
	}
}

// allocDefaultStack holds the stack the paper describes — checksum,
// fragmentation, sliding window, identification — to the same budget: one
// echoed message is a send and a delivery on each side, with all four
// window post-processing phases behind them (frame saved and released,
// retransmission timer armed and disarmed, delayed ack armed and
// cancelled by the piggyback), and the instantaneous network runs the
// whole exchange inside the one Send.
func allocDefaultStack(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	cfg := func(addr string) Config {
		return Config{Transport: net.Endpoint(addr), Telemetry: rec, TelemetrySampleEvery: 1}
	}
	a, b := allocPair(t, cfg)
	var echoErr error
	echoes := 0
	b.OnDeliver(func(data []byte) {
		if err := b.Send(data); err != nil {
			echoErr = err
		}
	})
	a.OnDeliver(func([]byte) { echoes++ })
	payload := make([]byte, 8)
	roundTrip := func() {
		if err := a.Send(payload); err != nil {
			echoErr = err
		}
	}
	for i := 0; i < 256; i++ { // warm pools, prime prediction, create the timers
		roundTrip()
	}
	allocs := testing.AllocsPerRun(500, roundTrip)
	if echoErr != nil {
		t.Fatal(echoErr)
	}
	if want := 256 + 501; echoes != want { // AllocsPerRun adds one warm-up call
		t.Fatalf("echoes = %d, want %d: the round trip did not complete inside Send", echoes, want)
	}
	if allocs != 0 {
		t.Fatalf("default-stack round trip: %.2f allocs/op, want 0", allocs)
	}
	if st := a.Stats(); st.SlowSends > 1 || st.SlowDelivers > 1 {
		t.Fatalf("default stack left the fast path: %+v", st)
	}
}

// allocDial holds a Dial and Close of the default stack to what a
// connection owns — its layers, its Conn, one prediction block, its two
// routes; the schema and the filter programs come from the endpoint's
// plan (compiling them per dial is 112 allocations).
func allocDial(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	ep, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Telemetry: rec, TelemetrySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	spec, _ := specAB()
	var dialErr error
	allocs := testing.AllocsPerRun(500, func() {
		c, err := ep.Dial(spec)
		if err != nil {
			dialErr = err
			return
		}
		c.Close()
	})
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	t.Logf("dial+close: %.0f allocs", allocs)
	if allocs > 25 {
		t.Fatalf("dial+close: %.0f allocs, want <= 25", allocs)
	}
}

// allocDeliver asserts the routed delivery path alone — transport handler,
// cookie router, packet filter, fast-path delivery, application callback —
// is allocation-free, by replaying one captured cookie-only frame straight
// into the endpoint's receive handler.
func allocDeliver(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	tap := &allocTap{Transport: net.Endpoint("S")}
	server, err := NewEndpoint(Config{
		Transport: tap, Build: leanBuild,
		Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewEndpoint(Config{Transport: net.Endpoint("C"), Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Pre-agreed cookies on both sides keep every frame cookie-only.
	sc, err := server.Dial(PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.OnDeliver(func([]byte) {})
	cc, err := client.Dial(PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Send([]byte("capture!")); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	frame := append([]byte(nil), tap.last...)
	tap.mu.Unlock()
	if len(frame) == 0 {
		t.Fatal("no frame captured")
	}
	for i := 0; i < 256; i++ {
		server.onRecv("C", frame)
	}
	allocs := testing.AllocsPerRun(500, func() { server.onRecv("C", frame) })
	if allocs != 0 {
		t.Fatalf("deliver fast path: %.2f allocs/op, want 0", allocs)
	}
}

// allocStandaloneAck asserts that a received standalone acknowledgement —
// slow path, consumed by the window, which acts on it in its post-phase —
// is allocation-free: the engine returns the consumed frame to the
// message pool. One captured cookie-only ack on the default stack is
// replayed into the endpoint's receive handler.
func allocStandaloneAck(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	tap := &allocTap{Transport: net.Endpoint("S")}
	server, err := NewEndpoint(Config{Transport: tap, Telemetry: rec, TelemetrySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewEndpoint(Config{Transport: net.Endpoint("C")})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sc, err := server.Dial(PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := client.Dial(PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cc.OnDeliver(func([]byte) {})
	// Half a window of deliveries makes the client acknowledge at once.
	for i := 0; i < layers.DefaultWindowSize/2; i++ {
		if err := sc.Send([]byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	var w *layers.Window
	for _, l := range sc.Layers() {
		if lw, ok := l.(*layers.Window); ok {
			w = lw
		}
	}
	tap.mu.Lock()
	frame := append([]byte(nil), tap.last...)
	tap.mu.Unlock()
	if w.Stats.AcksReceived != 1 || w.Outstanding() != 0 {
		t.Fatalf("acks received = %d, outstanding = %d: no standalone ack captured",
			w.Stats.AcksReceived, w.Outstanding())
	}
	for i := 0; i < 256; i++ {
		server.onRecv("C", frame)
	}
	allocs := testing.AllocsPerRun(500, func() { server.onRecv("C", frame) })
	if got := w.Stats.AcksReceived; got != 1+256+501 {
		t.Fatalf("acks received = %d, want every replay consumed", got)
	}
	if allocs != 0 {
		t.Fatalf("standalone ack: %.2f allocs/op, want 0", allocs)
	}
}

// allocFanout asserts the steady-state group fanout is allocation-free:
// one template build and filter pass, 16 member stamps, one batched
// transmit through SendBatchTo, and the members' synchronous deliveries
// on the far side — all inside the measured budget.
func allocFanout(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	sink := net.Endpoint("sink")
	sink.SetHandler(func(string, []byte) {})
	ep, err := NewEndpoint(Config{
		Transport: net.Endpoint("A"), Build: leanBuild,
		Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conns := make([]*Conn, 16)
	for i := range conns {
		conns[i], err = ep.Dial(PeerSpec{
			Addr:    "sink",
			LocalID: []byte("A"), RemoteID: []byte{byte(i)},
			LocalPort: uint16(i + 1), RemotePort: uint16(i + 1),
			Epoch: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fan, err := NewFanout(ep, conns...)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	for i := 0; i < 256; i++ { // warm pools, prime prediction
		if err := fan.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(500, func() {
		if err := fan.Send(payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Fatalf("fanout fast path: %.2f allocs/op, want 0", allocs)
	}
}

// secureLeanBuild is leanBuild with AES-GCM in place of the checksum
// (the tag subsumes it): fragmentation + encryption + identification, no
// window, so the nonce counter advances one per frame with no gaps and
// the whole encrypted path stays on prediction.
var secureLeanBuild = BuildStack(StackOptions{
	NoWindow: true, Secure: &SecureConfig{Key: []byte("alloc budget key")},
})

// allocSecureSend asserts the encrypted steady-state send — seal in the
// send filter, batch flush, far-side open and delivery — is
// allocation-free once the AEAD scratches are warm.
func allocSecureSend(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	cfg := func(addr string) Config {
		return Config{
			Transport: net.Endpoint(addr), Build: secureLeanBuild,
			Telemetry: rec, TelemetrySampleEvery: 1,
		}
	}
	a, b := allocPair(t, cfg)
	delivered := 0
	b.OnDeliver(func([]byte) { delivered++ })
	payload := make([]byte, 32)
	for i := 0; i < 256; i++ { // warm pools, scratches, prediction
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	var sendErr error
	allocs := testing.AllocsPerRun(500, func() {
		if err := a.Send(payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 0 {
		t.Fatalf("secure send fast path: %.2f allocs/op, want 0", allocs)
	}
	if delivered < 256+500 {
		t.Fatalf("delivered %d, want every sealed frame opened", delivered)
	}
}

// recordTap captures every outgoing datagram WITHOUT delivering it, so a
// later replay hits the receiving endpoint with its predictions still
// at the sequence's start.
type recordTap struct {
	Transport
	mu     sync.Mutex
	frames [][]byte
}

func (t *recordTap) SetHandler(h func(src string, datagram []byte)) {
	t.Transport.SetHandler(func(src string, datagram []byte) {
		t.mu.Lock()
		t.frames = append(t.frames, append([]byte(nil), datagram...))
		t.mu.Unlock()
	})
}

// allocSecureDeliver asserts the encrypted routed-delivery path — cookie
// route, delivery filter open (authenticate + decrypt in place), fast
// delivery, prediction update — is allocation-free. Unlike the plaintext
// deliver test a single frame cannot be replayed (the nonce prediction
// advances), so a pre-captured in-order sequence is fed instead.
func allocSecureDeliver(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	const warm, runs = 256, 500
	net := netsim.New(vclock.Real{}, netsim.Config{})
	tap := &recordTap{Transport: net.Endpoint("S")}
	server, err := NewEndpoint(Config{
		Transport: tap, Build: secureLeanBuild,
		Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewEndpoint(Config{Transport: net.Endpoint("C"), Build: secureLeanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Pre-agreed cookies keep every frame cookie-only; the tap swallows
	// the client's traffic so the server sees it first during the replay.
	sc, err := server.Dial(PeerSpec{
		Addr: "C", LocalID: []byte("server"), RemoteID: []byte("client"),
		LocalPort: 2000, RemotePort: 1000, Epoch: 1,
		OutCookie: 0xc11e, ExpectInCookie: 0x5eed, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	sc.OnDeliver(func([]byte) { delivered++ })
	cc, err := client.Dial(PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
		OutCookie: 0x5eed, ExpectInCookie: 0xc11e, SkipFirstConnID: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := warm + runs + 1 // AllocsPerRun calls f once extra to warm up
	for i := 0; i < total; i++ {
		if err := cc.Send([]byte("sealed frame, distinct nonce")); err != nil {
			t.Fatal(err)
		}
	}
	tap.mu.Lock()
	frames := tap.frames
	tap.mu.Unlock()
	if len(frames) < total {
		t.Fatalf("captured %d frames, want %d", len(frames), total)
	}
	for i := 0; i < warm; i++ {
		server.onRecv("C", frames[i])
	}
	idx := warm
	allocs := testing.AllocsPerRun(runs, func() {
		server.onRecv("C", frames[idx])
		idx++
	})
	if allocs != 0 {
		t.Fatalf("secure deliver fast path: %.2f allocs/op, want 0", allocs)
	}
	if delivered != total {
		t.Fatalf("delivered %d of %d — frames dropped, not measured", delivered, total)
	}
}

// allocShed asserts the admission reject path is allocation-free: an
// identified first message arriving at a full endpoint must be refused
// before the identification is parsed or any connection state allocated —
// the whole point of shedding is that it stays cheap while the endpoint
// is drowning. The storm detector is enabled so its per-second
// bookkeeping is inside the measured budget too.
func allocShed(t *testing.T, rec *telemetry.Recorder) {
	t.Helper()
	net := netsim.New(vclock.Real{}, netsim.Config{})
	tap := &allocTap{Transport: net.Endpoint("S")}
	server, err := NewEndpoint(Config{
		Transport: tap, Build: leanBuild,
		MaxConns:  1,
		Admission: AdmissionConfig{StormRate: 64, Seed: 9},
		Accept: func(remote layers.IdentInfo, netSrc string) (PeerSpec, bool) {
			return PeerSpec{Addr: netSrc}, true
		},
		OnConn:    func(c *Conn) { c.OnDeliver(func([]byte) {}) },
		Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewEndpoint(Config{Transport: net.Endpoint("C"), Build: leanBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// The client's identified first message fills the server's one
	// connection slot; the tap keeps the frame.
	cc, err := client.Dial(PeerSpec{
		Addr: "S", LocalID: []byte("client"), RemoteID: []byte("server"),
		LocalPort: 1000, RemotePort: 2000, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Send([]byte("fill the table")); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	frame := append([]byte(nil), tap.last...)
	tap.mu.Unlock()
	if len(frame) == 0 {
		t.Fatal("no frame captured")
	}
	// Flip one identification byte: the replay now looks like a brand-new
	// peer's first message, misses the ident table, and admission refuses
	// it at capacity — every single time.
	frame[PreambleSize] ^= 0xFF
	before := server.Snapshot()
	if before.Conns != 1 {
		t.Fatalf("Conns=%d, want the table full at 1", before.Conns)
	}
	for i := 0; i < 256; i++ {
		server.onRecv("Z", frame)
	}
	allocs := testing.AllocsPerRun(500, func() { server.onRecv("Z", frame) })
	if allocs != 0 {
		t.Fatalf("shed path: %.2f allocs/op, want 0", allocs)
	}
	after := server.Snapshot()
	if after.Conns != 1 || after.ShedTotal == before.ShedTotal {
		t.Fatalf("replays were not shed: Conns=%d ShedTotal=%d→%d",
			after.Conns, before.ShedTotal, after.ShedTotal)
	}
}
