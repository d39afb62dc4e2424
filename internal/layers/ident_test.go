package layers

import (
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
)

func newIdent() *Ident {
	return &Ident{
		Local:      []byte("alice"),
		Remote:     []byte("bob"),
		LocalPort:  7001,
		RemotePort: 7002,
		Epoch:      42,
		Order:      bits.BigEndian,
	}
}

func TestIdentIs76Bytes(t *testing.T) {
	h := newHarness(t, newIdent())
	if got := h.schema.Size(header.ConnID); got != 76 {
		t.Fatalf("connection identification = %d bytes, want the paper's 76", got)
	}
}

func TestIdentPrimeWritesIdentification(t *testing.T) {
	l := newIdent()
	h := newHarness(t, l)
	hdr := h.base.PredictSend[header.ConnID]
	if string(l.src.Bytes(hdr)[:5]) != "alice" {
		t.Fatal("src not written")
	}
	if string(l.dst.Bytes(hdr)[:3]) != "bob" {
		t.Fatal("dst not written")
	}
	if l.sport.Read(hdr, bits.BigEndian) != 7001 || l.dport.Read(hdr, bits.BigEndian) != 7002 {
		t.Fatal("ports not written")
	}
	if l.epoch.Read(hdr, bits.BigEndian) != 42 {
		t.Fatal("epoch not written")
	}
	if l.version.Read(hdr, bits.BigEndian) != IdentVersion {
		t.Fatal("version not written")
	}
}

func TestIdentExpectedIncomingMatchesPeerPrime(t *testing.T) {
	// What alice expects from bob must equal what bob's Prime writes.
	alice := newIdent()
	ha := newHarness(t, alice)
	bob := &Ident{
		Local: []byte("bob"), Remote: []byte("alice"),
		LocalPort: 7002, RemotePort: 7001,
		Epoch: 42, Order: bits.BigEndian,
	}
	hb := newHarness(t, bob)
	want := hb.base.PredictSend[header.ConnID]
	got := alice.ExpectedIncoming(ha.schema.Size(header.ConnID), bits.BigEndian)
	if string(got) != string(want) {
		t.Fatalf("expected incoming mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestIdentPreDeliverVerifies(t *testing.T) {
	l := newIdent()
	h := newHarness(t, l)
	m, env := h.env(nil)
	defer m.Free()
	// No identification attached: continue.
	if v, _ := h.st.PreDeliver(h.ctx(env), m); v != stack.Continue {
		t.Fatal("identification-free message rejected")
	}
	// Attach the peer's identification: continue.
	env.Hdr[header.ConnID] = l.ExpectedIncoming(h.schema.Size(header.ConnID), bits.BigEndian)
	if v, _ := h.st.PreDeliver(h.ctx(env), m); v != stack.Continue {
		t.Fatal("valid identification rejected")
	}
	// Wrong epoch: drop.
	l.epoch.Write(env.Hdr[header.ConnID], bits.BigEndian, 43)
	if v, _ := h.st.PreDeliver(h.ctx(env), m); v != stack.Drop {
		t.Fatal("wrong epoch accepted")
	}
	l.epoch.Write(env.Hdr[header.ConnID], bits.BigEndian, 42)
	// Wrong destination: drop.
	copy(l.dst.Bytes(env.Hdr[header.ConnID]), pad([]byte("mallory")))
	if v, _ := h.st.PreDeliver(h.ctx(env), m); v != stack.Drop {
		t.Fatal("foreign destination accepted")
	}
}

func TestIdentOversizedIDRejected(t *testing.T) {
	l := &Ident{Local: make([]byte, EndpointIDLen+1)}
	s := header.New()
	err := l.Init(&stack.InitContext{Schema: s})
	if err == nil {
		t.Fatal("oversized identifier accepted")
	}
}

func TestHeartbeatBeatsWhenIdle(t *testing.T) {
	hb := NewHeartbeat()
	hb.Interval = 10 * time.Millisecond
	h := newHarness(t, hb)
	h.clk.Advance(10 * time.Millisecond)
	if hb.Beats != 1 {
		t.Fatalf("beats = %d", hb.Beats)
	}
	if len(h.svc.controls) != 1 {
		t.Fatal("no keepalive control message")
	}
	c := h.svc.controls[0]
	if hb.hb.Read(c.env.Hdr[header.ProtoSpec], c.env.Order) != 1 {
		t.Fatal("keepalive bit not set")
	}
	h.clk.Advance(10 * time.Millisecond)
	if hb.Beats != 2 {
		t.Fatalf("beats = %d", hb.Beats)
	}
}

func TestHeartbeatConsumesKeepalives(t *testing.T) {
	hb := NewHeartbeat()
	hb.Interval = time.Hour
	h := newHarness(t, hb)
	m, env := h.env(nil)
	defer m.Free()
	hb.hb.Write(env.Hdr[header.ProtoSpec], env.Order, 1)
	if v := h.receive(env, m); v != stack.Consume {
		t.Fatal("keepalive not consumed")
	}
	if hb.Heard != 1 {
		t.Fatalf("heard = %d", hb.Heard)
	}
}

func TestHeartbeatSilenceCallback(t *testing.T) {
	hb := NewHeartbeat()
	hb.Interval = 10 * time.Millisecond
	hb.Misses = 2
	var silentFor time.Duration
	hb.OnSilence = func(d time.Duration) { silentFor = d }
	h := newHarness(t, hb)
	h.clk.Advance(50 * time.Millisecond)
	if silentFor < 20*time.Millisecond {
		t.Fatalf("silence callback = %v", silentFor)
	}
	// Traffic resets the silence state.
	m, env := h.env([]byte("data"))
	defer m.Free()
	h.receive(env, m)
	if hb.silenced {
		t.Fatal("traffic did not clear silence")
	}
}

func TestHeartbeatStop(t *testing.T) {
	hb := NewHeartbeat()
	hb.Interval = 10 * time.Millisecond
	h := newHarness(t, hb)
	hb.Stop()
	h.clk.Advance(time.Second)
	if hb.Beats != 0 {
		t.Fatal("stopped heartbeat kept beating")
	}
}

func TestStampSendAndSample(t *testing.T) {
	st := NewStamp()
	var samples []time.Duration
	st.OnSample = func(d time.Duration) { samples = append(samples, d) }
	rec := telemetry.New(telemetry.Options{})
	st.SetTelemetry(rec, 0, 5)
	h := newHarness(t, st)

	m, env := h.env([]byte("x"))
	defer m.Free()
	env.Time = 1000 // µs at send
	ctx := h.ctx(env)
	if v, _ := h.st.PreSend(ctx, m); v != stack.Continue {
		t.Fatal("presend failed")
	}
	if st := h.sendF.Run(env); st != filter.StatusOK {
		t.Fatalf("send filter = %d", st)
	}
	if got := st.ts.Read(env.Hdr[header.MsgSpec], env.Order); got != 1000 {
		t.Fatalf("ts field = %d", got)
	}
	// Delivery 85 µs later.
	env.Time = 1085
	h.st.PreDeliver(ctx, m)
	h.st.PostDeliver(ctx, m)
	if len(samples) != 1 || samples[0] != 85*time.Microsecond {
		t.Fatalf("samples = %v", samples)
	}
	mean, n := st.Mean()
	if n != 1 || mean != 85*time.Microsecond {
		t.Fatalf("mean = %v over %d", mean, n)
	}
	// The installed recorder gets the same sample in its one-way histogram.
	oneWay := rec.Snapshot(false).Ops[telemetry.OpOneWay]
	if oneWay.Count != 1 || oneWay.MeanNs != float64(85*time.Microsecond) {
		t.Fatalf("one-way histogram = %+v, want one 85µs sample", oneWay)
	}
}

func TestStampFilterFillsTimestamp(t *testing.T) {
	st := NewStamp()
	h := newHarness(t, st)
	m, env := h.env([]byte("y"))
	defer m.Free()
	env.Time = 123456
	if got := h.sendF.Run(env); got != 0 {
		t.Fatalf("send filter = %d", got)
	}
	if got := st.ts.Read(env.Hdr[header.MsgSpec], env.Order); got != 123456 {
		t.Fatalf("ts = %d", got)
	}
}

func TestStampMeanEmpty(t *testing.T) {
	st := NewStamp()
	if mean, n := st.Mean(); mean != 0 || n != 0 {
		t.Fatal("empty mean not zero")
	}
}
