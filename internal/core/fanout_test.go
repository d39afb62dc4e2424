package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/header"
	"paccel/internal/message"
	"paccel/internal/netsim"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// star is a hub endpoint with one full-stack connection to each of n
// member endpoints — the group-fanout fixture. Every channel runs the
// default four-layer stack, so each member has its own sliding window.
type star struct {
	clk   *vclock.Manual
	hub   *Endpoint
	conns []*Conn
	sinks []*sink
	fan   *Fanout
}

func memberName(i int) string { return fmt.Sprintf("m%02d", i) }

func newStar(t *testing.T, n int, rec *telemetry.Recorder, nc netsim.Config) *star {
	t.Helper()
	s := &star{clk: vclock.NewManual(t0)}
	net := netsim.New(s.clk, nc)
	hub, err := NewEndpoint(Config{
		Transport: net.Endpoint("hub"), Clock: s.clk,
		Telemetry: rec, TelemetrySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.hub = hub
	t.Cleanup(func() { hub.Close() })
	for i := 0; i < n; i++ {
		name := memberName(i)
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(name), Clock: s.clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		hc, err := hub.Dial(PeerSpec{
			Addr: name, LocalID: []byte("hub"), RemoteID: []byte(name),
			LocalPort: 1, RemotePort: uint16(i + 2), Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := ep.Dial(PeerSpec{
			Addr: "hub", LocalID: []byte(name), RemoteID: []byte("hub"),
			LocalPort: uint16(i + 2), RemotePort: 1, Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		sk := &sink{}
		mc.OnDeliver(sk.add)
		s.conns = append(s.conns, hc)
		s.sinks = append(s.sinks, sk)
	}
	if s.fan, err = NewFanout(hub, s.conns...); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFanoutDeliversToAllMembers drives multicasts through the engine
// and checks every member's sink sees every payload, in order, on the
// fast path.
func TestFanoutDeliversToAllMembers(t *testing.T) {
	const members, rounds = 5, 40
	s := newStar(t, members, nil, netsim.Config{})
	for i := 0; i < rounds; i++ {
		if err := s.fan.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
		// Let delayed acks fire so windows keep sliding.
		s.clk.Advance(200 * time.Millisecond)
	}
	s.clk.Advance(2 * time.Second)
	for m, sk := range s.sinks {
		if sk.count() != rounds {
			t.Fatalf("member %d delivered %d of %d", m, sk.count(), rounds)
		}
		for i := 0; i < rounds; i++ {
			want := fmt.Sprintf("msg-%03d", i)
			if string(sk.get(i)) != want {
				t.Fatalf("member %d message %d = %q, want %q", m, i, sk.get(i), want)
			}
		}
	}
	// The stamped path is the fast path: every multicast counts one
	// FastSend per member, and the gathers went down as batches.
	for m, c := range s.conns {
		st := c.Stats()
		if st.Sent != rounds {
			t.Fatalf("member %d conn Sent=%d, want %d", m, st.Sent, rounds)
		}
		if st.FastSends == 0 {
			t.Fatalf("member %d conn never took the fast path", m)
		}
	}
	if bs := s.hub.Snapshot().BatchSends; bs < rounds {
		t.Fatalf("BatchSends=%d, want >= %d (one batch per multicast)", bs, rounds)
	}
}

// TestFanoutMatchesPerMemberSend checks parity: the same payload
// sequence through the engine and through a per-member Send loop
// delivers identical bytes at every member.
func TestFanoutMatchesPerMemberSend(t *testing.T) {
	const members, rounds = 4, 25
	batched := newStar(t, members, nil, netsim.Config{})
	looped := newStar(t, members, nil, netsim.Config{})
	for i := 0; i < rounds; i++ {
		payload := []byte(fmt.Sprintf("parity-%03d", i))
		if err := batched.fan.Send(payload); err != nil {
			t.Fatal(err)
		}
		for _, c := range looped.conns {
			if err := c.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		batched.clk.Advance(200 * time.Millisecond)
		looped.clk.Advance(200 * time.Millisecond)
	}
	batched.clk.Advance(2 * time.Second)
	looped.clk.Advance(2 * time.Second)
	for m := 0; m < members; m++ {
		if batched.sinks[m].count() != looped.sinks[m].count() {
			t.Fatalf("member %d: fanout delivered %d, per-member %d",
				m, batched.sinks[m].count(), looped.sinks[m].count())
		}
		for i := 0; i < batched.sinks[m].count(); i++ {
			if string(batched.sinks[m].get(i)) != string(looped.sinks[m].get(i)) {
				t.Fatalf("member %d message %d: fanout %q vs per-member %q",
					m, i, batched.sinks[m].get(i), looped.sinks[m].get(i))
			}
		}
	}
}

// TestFanoutPerMemberWindows desynchronizes the members' window
// sequences with direct sends before multicasting: the stamping pass
// must use each member's own predicted sequence, not the template's.
func TestFanoutPerMemberWindows(t *testing.T) {
	const members = 3
	s := newStar(t, members, nil, netsim.Config{})
	// Member 0 is 5 messages ahead, member 1 is 2 ahead.
	for i := 0; i < 5; i++ {
		if err := s.conns[0].Send([]byte("ahead0")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := s.conns[1].Send([]byte("ahead1")); err != nil {
			t.Fatal(err)
		}
	}
	s.clk.Advance(time.Second)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := s.fan.Send([]byte(fmt.Sprintf("multi-%02d", i))); err != nil {
			t.Fatal(err)
		}
		s.clk.Advance(200 * time.Millisecond)
	}
	s.clk.Advance(2 * time.Second)
	wants := []int{rounds + 5, rounds + 2, rounds}
	for m, sk := range s.sinks {
		if sk.count() != wants[m] {
			t.Fatalf("member %d delivered %d, want %d", m, sk.count(), wants[m])
		}
		// The multicasts arrive in order after the member's direct sends.
		for i := 0; i < rounds; i++ {
			want := fmt.Sprintf("multi-%02d", i)
			if got := string(sk.get(wants[m] - rounds + i)); got != want {
				t.Fatalf("member %d multicast %d = %q, want %q", m, i, got, want)
			}
		}
	}
}

// TestFanoutBacklogWhenWindowClosed fills the members' windows by
// multicasting without letting acks through, then releases the clock:
// overflow multicasts ride each member's backlog and every message still
// arrives exactly once, in order.
func TestFanoutBacklogWhenWindowClosed(t *testing.T) {
	const members, rounds = 3, 30 // window is 16: the tail must backlog
	// Latency keeps acks in flight while the burst fills the windows.
	s := newStar(t, members, nil, netsim.Config{Latency: 20 * time.Millisecond})
	for i := 0; i < rounds; i++ {
		if err := s.fan.Send([]byte(fmt.Sprintf("burst-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	backlogged := uint64(0)
	for _, c := range s.conns {
		backlogged += c.Stats().Backlogged
	}
	if backlogged == 0 {
		t.Fatal("expected the tail of the burst to backlog behind full windows")
	}
	for i := 0; i < 40; i++ {
		s.clk.Advance(500 * time.Millisecond)
	}
	for m, sk := range s.sinks {
		if sk.count() != rounds {
			t.Fatalf("member %d delivered %d of %d after drain", m, sk.count(), rounds)
		}
		for i := 0; i < rounds; i++ {
			want := fmt.Sprintf("burst-%02d", i)
			if string(sk.get(i)) != want {
				t.Fatalf("member %d message %d = %q, want %q", m, i, sk.get(i), want)
			}
		}
	}
}

// TestFanoutCollectsAllErrors fails two members mid-group and checks
// one Send reports both failures while the healthy members still get the
// message.
func TestFanoutCollectsAllErrors(t *testing.T) {
	const members = 4
	s := newStar(t, members, nil, netsim.Config{})
	if err := s.fan.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.clk.Advance(time.Second)
	s.conns[1].Fail(errors.New("induced"))
	s.conns[3].Fail(errors.New("induced"))
	err := s.fan.Send([]byte("after"))
	if err == nil {
		t.Fatal("expected an error for the failed members")
	}
	if !errors.Is(err, ErrConnFailed) {
		t.Fatalf("err = %v, want ErrConnFailed in the chain", err)
	}
	msg := err.Error()
	for _, m := range []int{1, 3} {
		if !strings.Contains(msg, memberName(m)) {
			t.Fatalf("error %q does not name failed member %s", msg, memberName(m))
		}
	}
	// Failed members stay in the group: failure is the application's to
	// act on (close or recover), unlike a deliberate Close.
	if s.fan.Len() != members {
		t.Fatalf("Len = %d after member failures, want %d", s.fan.Len(), members)
	}
	s.clk.Advance(time.Second)
	for _, m := range []int{0, 2} {
		sk := s.sinks[m]
		if sk.count() != 2 || string(sk.get(1)) != "after" {
			t.Fatalf("healthy member %d delivered %d messages", m, sk.count())
		}
	}
}

// TestFanoutClosedMemberRidesViewChange closes two members mid-group: a
// Close racing an in-flight fanout is a departure, so the next Send
// drops them from the group silently — no per-member error — and the
// healthy members still get the message (the PR 9 churn leftover).
func TestFanoutClosedMemberRidesViewChange(t *testing.T) {
	const members = 4
	s := newStar(t, members, nil, netsim.Config{})
	if err := s.fan.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.clk.Advance(time.Second)
	s.conns[1].Close()
	s.conns[3].Close()
	if err := s.fan.Send([]byte("after")); err != nil {
		t.Fatalf("Send over closed members: %v, want nil (leave rides the view change)", err)
	}
	if s.fan.Len() != members-2 {
		t.Fatalf("Len = %d after leaves, want %d", s.fan.Len(), members-2)
	}
	if err := s.fan.Send([]byte("steady")); err != nil {
		t.Fatalf("Send after view change: %v", err)
	}
	s.clk.Advance(time.Second)
	for _, m := range []int{0, 2} {
		sk := s.sinks[m]
		if sk.count() != 3 || string(sk.get(2)) != "steady" {
			t.Fatalf("healthy member %d delivered %d messages", m, sk.count())
		}
	}
}

// TestFanoutChurn adds and removes members mid-stream and checks the
// engine's membership, the telemetry gauge, and that removed members
// stop receiving.
func TestFanoutChurn(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	const members = 3
	s := newStar(t, members, rec, netsim.Config{})
	gauge := rec.NamedGauge(FanoutMembersGauge)
	if got := gauge.Value(); got != members {
		t.Fatalf("members gauge = %d, want %d", got, members)
	}
	if err := s.fan.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	s.fan.Remove(s.conns[1])
	if s.fan.Len() != members-1 || gauge.Value() != members-1 {
		t.Fatalf("after Remove: Len=%d gauge=%d", s.fan.Len(), gauge.Value())
	}
	if err := s.fan.Send([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.fan.Add(s.conns[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.fan.Add(s.conns[1]); err != nil { // idempotent
		t.Fatal(err)
	}
	if s.fan.Len() != members || gauge.Value() != members {
		t.Fatalf("after Add: Len=%d gauge=%d", s.fan.Len(), gauge.Value())
	}
	if err := s.fan.Send([]byte("three")); err != nil {
		t.Fatal(err)
	}
	s.clk.Advance(2 * time.Second)
	if got := s.sinks[1].count(); got != 2 {
		t.Fatalf("churned member delivered %d messages, want 2 (missed the middle one)", got)
	}
	if got := s.sinks[0].count(); got != 3 {
		t.Fatalf("steady member delivered %d messages, want 3", got)
	}
	// The engine's op histogram saw the fanouts.
	snap := rec.Snapshot(false)
	if snap.Ops[telemetry.OpFanout].Count == 0 {
		t.Fatal("telemetry recorded no fanout operations")
	}
}

// TestFanoutRejectsMixedEndpoints checks members must share the engine's
// endpoint.
func TestFanoutRejectsMixedEndpoints(t *testing.T) {
	r := newRig(t, netsim.Config{}, nil)
	if _, err := NewFanout(r.epA, r.a, r.b); !errors.Is(err, ErrFanoutMixedEndpoints) {
		t.Fatalf("NewFanout across endpoints: err = %v, want ErrFanoutMixedEndpoints", err)
	}
}

// TestFanoutMixedShapes checks a fanout over members of two stack shapes:
// the template is built from the first member's plan, so a member of the
// other shape must take its own full send rather than a clone stamped at
// the first shape's offsets.
func TestFanoutMixedShapes(t *testing.T) {
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	hub, err := NewEndpoint(Config{Transport: net.Endpoint("hub"), Clock: clk, Build: twoShapeBuild})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var conns, peers []*Conn
	var sinks []*sink
	for _, epoch := range []uint32{2, 3} {
		name := memberName(int(epoch))
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(name), Clock: clk, Build: twoShapeBuild})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		hc, err := hub.Dial(PeerSpec{
			Addr: name, LocalID: []byte("hub"), RemoteID: []byte(name),
			LocalPort: 1, RemotePort: uint16(epoch), Epoch: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := ep.Dial(PeerSpec{
			Addr: "hub", LocalID: []byte(name), RemoteID: []byte("hub"),
			LocalPort: uint16(epoch), RemotePort: 1, Epoch: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		sk := &sink{}
		mc.OnDeliver(sk.add)
		if err := hc.Send([]byte("warm")); err != nil {
			t.Fatal(err)
		}
		if err := mc.Send([]byte("warm")); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, hc)
		peers = append(peers, mc)
		sinks = append(sinks, sk)
	}
	if conns[0].plan == conns[1].plan {
		t.Fatal("the two shapes share a send program")
	}
	f, err := NewFanout(hub, conns...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Send([]byte("fanout-8")); err != nil {
			t.Fatal(err)
		}
	}
	for i, sk := range sinks {
		if got := sk.count(); got != 4 {
			t.Fatalf("member %d delivered %d messages, want warm-up + 3", i, got)
		}
		for j := 1; j < 4; j++ {
			if string(sk.get(j)) != "fanout-8" {
				t.Fatalf("member %d message %d = %q", i, j, sk.get(j))
			}
		}
		if d := peers[i].Stats().Dropped; d != 0 {
			t.Fatalf("member %d dropped %d", i, d)
		}
	}
}

// msgSpecPredictor registers a message-specific field and — against the
// template contract — predicts it, forcing the engine's runtime
// fallback.
type msgSpecPredictor struct{ tag header.Handle }

func (l *msgSpecPredictor) Name() string { return "mspredict" }
func (l *msgSpecPredictor) Init(ic *stack.InitContext) error {
	var err error
	l.tag, err = ic.Schema.AddField(header.MsgSpec, l.Name(), "tag", 8, header.DontCare)
	return err
}
func (l *msgSpecPredictor) Prime(ctx *stack.Context) {
	l.tag.Write(ctx.PredictSend[header.MsgSpec], ctx.Order, 0xA5)
}
func (l *msgSpecPredictor) PreSend(ctx *stack.Context, m *message.Msg) stack.Verdict {
	l.tag.Write(ctx.Env.Hdr[header.MsgSpec], ctx.Order, 0xA5)
	return stack.Continue
}
func (l *msgSpecPredictor) PostSend(*stack.Context, *message.Msg) {}
func (l *msgSpecPredictor) PreDeliver(*stack.Context, *message.Msg) stack.Verdict {
	return stack.Continue
}
func (l *msgSpecPredictor) PostDeliver(*stack.Context, *message.Msg) {}

// TestFanoutFallbackOnPredictedMsgSpec checks the runtime backstop: a
// layer that predicts MsgSpec bytes invalidates the shared template, so
// the engine silently takes the full per-member path — correct delivery,
// no batches.
func TestFanoutFallbackOnPredictedMsgSpec(t *testing.T) {
	clk := vclock.NewManual(t0)
	net := netsim.New(clk, netsim.Config{})
	build := func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := leanBuild(spec, order)
		if err != nil {
			return nil, err
		}
		return append([]stack.Layer{&msgSpecPredictor{}}, ls...), nil
	}
	hub, err := NewEndpoint(Config{Transport: net.Endpoint("hub"), Clock: clk, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const members = 3
	var conns []*Conn
	var sinks []*sink
	for i := 0; i < members; i++ {
		name := memberName(i)
		ep, err := NewEndpoint(Config{Transport: net.Endpoint(name), Clock: clk, Build: build})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		hc, err := hub.Dial(PeerSpec{
			Addr: name, LocalID: []byte("hub"), RemoteID: []byte(name),
			LocalPort: 1, RemotePort: uint16(i + 2), Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		mc, err := ep.Dial(PeerSpec{
			Addr: "hub", LocalID: []byte(name), RemoteID: []byte("hub"),
			LocalPort: uint16(i + 2), RemotePort: 1, Epoch: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		sk := &sink{}
		mc.OnDeliver(sk.add)
		conns = append(conns, hc)
		sinks = append(sinks, sk)
	}
	fan, err := NewFanout(hub, conns...)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := fan.Send([]byte(fmt.Sprintf("fb-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(100 * time.Millisecond)
	}
	clk.Advance(time.Second)
	for m, sk := range sinks {
		if sk.count() != rounds {
			t.Fatalf("member %d delivered %d of %d on the fallback path", m, sk.count(), rounds)
		}
	}
}
