package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// acceptAll is the accept hook used throughout the admission tests: it
// takes every identified connection at face value.
func acceptAll(remote layers.IdentInfo, netSrc string) (PeerSpec, bool) {
	return PeerSpec{
		Addr:      netSrc,
		LocalID:   bytes.TrimRight(remote.Dst, "\x00"),
		RemoteID:  bytes.TrimRight(remote.Src, "\x00"),
		LocalPort: remote.DstPort, RemotePort: remote.SrcPort,
		Epoch: remote.Epoch,
	}, true
}

// dialIn creates a throwaway client endpoint on net, sends one
// identified message to S (driving the server's first-message admission
// path — netsim delivery is synchronous, so the server has decided by
// the time Send returns), then closes the client so its retransmission
// timers cannot muddy later virtual-clock advances.
func dialIn(t *testing.T, clk vclock.Clock, net *netsim.Network, i int) {
	t.Helper()
	ep, err := NewEndpoint(Config{Transport: net.Endpoint(fmt.Sprintf("C%d", i)), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ep.Dial(PeerSpec{
		Addr: "S", LocalID: []byte(fmt.Sprintf("c%d", i)), RemoteID: []byte("srv"),
		LocalPort: uint16(i%65535 + 1), RemotePort: 9, Epoch: uint32(i / 65535),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	ep.Close()
}

// TestAdmissionErrorChain pins the typed error taxonomy: every admission
// refusal is an ErrAdmission, and every ErrAdmission is backpressure, so
// one errors.Is(err, ErrBackpressure) catches overload of any flavour.
func TestAdmissionErrorChain(t *testing.T) {
	for _, err := range []error{ErrAdmissionFull, ErrAdmissionStorm, ErrAdmissionEarlyDrop} {
		if !errors.Is(err, ErrAdmission) {
			t.Fatalf("%v does not wrap ErrAdmission", err)
		}
		if !errors.Is(err, ErrBackpressure) {
			t.Fatalf("%v does not wrap ErrBackpressure", err)
		}
	}
	if errors.Is(ErrAdmission, ErrAdmissionFull) {
		t.Fatal("error chain inverted")
	}
}

// TestDialRefusedAtCapacity: local dials beyond Config.MaxConns fail with
// ErrAdmissionFull before any connection state is allocated, and the
// refusals are counted — shed is never silent.
func TestDialRefusedAtCapacity(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	ep, err := NewEndpoint(Config{Transport: net.Endpoint("A"), Clock: clk, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for i := 0; i < 2; i++ {
		if _, err := ep.Dial(PeerSpec{
			Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"),
			LocalPort: uint16(i + 1), RemotePort: 9,
		}); err != nil {
			t.Fatalf("dial %d within capacity: %v", i, err)
		}
	}
	third, err := ep.Dial(PeerSpec{
		Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"),
		LocalPort: 3, RemotePort: 9,
	})
	if !errors.Is(err, ErrAdmissionFull) {
		t.Fatalf("dial past capacity: conn=%v err=%v, want ErrAdmissionFull", third, err)
	}
	s := ep.Snapshot()
	if s.Conns != 2 || s.MaxConns != 2 {
		t.Fatalf("Conns=%d MaxConns=%d, want 2/2", s.Conns, s.MaxConns)
	}
	if s.ShedFull != 1 || s.ShedTotal != 1 {
		t.Fatalf("ShedFull=%d ShedTotal=%d, want 1/1", s.ShedFull, s.ShedTotal)
	}
}

// TestInboundShedRejectNew: a full server sheds identified first messages
// on the unidentified path — no new connections, counted refusals, no
// loss for the connections that were admitted.
func TestInboundShedRejectNew(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	served := &sink{}
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: 3,
		Accept: acceptAll,
		OnConn: func(c *Conn) { c.OnDeliver(served.add) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	for i := 0; i < 10; i++ {
		dialIn(t, clk, net, i)
	}
	s := epS.Snapshot()
	if s.Accepted != 3 {
		t.Fatalf("Accepted=%d, want 3 (MaxConns)", s.Accepted)
	}
	if s.Conns != 3 {
		t.Fatalf("Conns=%d, want 3", s.Conns)
	}
	if s.ShedFull != 7 {
		t.Fatalf("ShedFull=%d, want 7", s.ShedFull)
	}
	if served.count() != 3 {
		t.Fatalf("served %d messages, want 3 (admitted connections lose nothing)", served.count())
	}
}

// TestInboundShedEvictIdle: at capacity the evict-idle policy closes the
// least-recently-routed learned connection to admit the newcomer.
func TestInboundShedEvictIdle(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: 2,
		Admission: AdmissionConfig{Policy: ShedEvictIdle},
		Accept:    acceptAll,
		OnConn:    func(c *Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	for i := 0; i < 5; i++ {
		dialIn(t, clk, net, i)
	}
	s := epS.Snapshot()
	if s.Accepted != 5 {
		t.Fatalf("Accepted=%d, want 5 (evict-idle admits everyone)", s.Accepted)
	}
	if s.Conns != 2 {
		t.Fatalf("Conns=%d, want 2 (capacity held)", s.Conns)
	}
	if s.AdmissionEvictions != 3 {
		t.Fatalf("AdmissionEvictions=%d, want 3", s.AdmissionEvictions)
	}
	if s.ShedFull != 0 {
		t.Fatalf("ShedFull=%d, want 0", s.ShedFull)
	}
}

// TestInboundShedEarlyDrop: with the probabilistic policy the server
// starts refusing before the cliff, deterministically under a fixed seed.
func TestInboundShedEarlyDrop(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: 10,
		Admission: AdmissionConfig{Policy: ShedEarlyDrop, EarlyDropStart: 0.5, Seed: 42},
		Accept:    acceptAll,
		OnConn:    func(c *Conn) { c.OnDeliver(func([]byte) {}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	for i := 0; i < 40; i++ {
		dialIn(t, clk, net, i)
	}
	s := epS.Snapshot()
	if s.Conns > 10 {
		t.Fatalf("Conns=%d exceeds MaxConns=10", s.Conns)
	}
	if s.ShedEarlyDrop == 0 {
		t.Fatal("no probabilistic early drops below capacity")
	}
	if s.Accepted < 5 {
		t.Fatalf("Accepted=%d — the ramp must admit everything below EarlyDropStart", s.Accepted)
	}
	// Accounting is complete: every inbound first message was either
	// accepted or counted as shed.
	if s.Accepted+s.ShedTotal != 40 {
		t.Fatalf("Accepted=%d + ShedTotal=%d ≠ 40 attempts (silent shed)", s.Accepted, s.ShedTotal)
	}
}

// TestStormDetector unit-tests the connect-rate tracker: immediate entry
// when the per-second attempt count crosses StormRate, exit only after
// two consecutive calm seconds.
func TestStormDetector(t *testing.T) {
	var a admissionState
	a.init(AdmissionConfig{StormRate: 10, StormAdmitPerSec: 5})
	sec := int64(1000)
	for i := 0; i < 10; i++ {
		storm, entered, _ := a.noteConnect(sec)
		if storm || entered {
			t.Fatalf("attempt %d below the rate tripped the detector", i)
		}
	}
	storm, entered, _ := a.noteConnect(sec)
	if !storm || !entered {
		t.Fatalf("attempt 11 did not trip: storm=%v entered=%v", storm, entered)
	}
	if a.stormsDetected.Load() != 1 {
		t.Fatalf("stormsDetected=%d", a.stormsDetected.Load())
	}
	// Next second: the finished storm second is not calm.
	if _, _, exited := a.noteConnect(sec + 1); exited {
		t.Fatal("exited after the storm second itself")
	}
	// Two consecutive calm seconds (1 attempt < rate/2) end the storm.
	if _, _, exited := a.noteConnect(sec + 2); exited {
		t.Fatal("exited after one calm second")
	}
	storm, _, exited := a.noteConnect(sec + 3)
	if !exited {
		t.Fatal("storm did not exit after two calm seconds")
	}
	if storm {
		t.Fatal("storm flag still set after exit")
	}
	// A long idle gap counts as calm time: re-enter and exit via gap.
	for i := 0; i < 12; i++ {
		a.noteConnect(sec + 10)
	}
	if !a.stormOn.Load() {
		t.Fatal("second storm did not trip")
	}
	a.noteConnect(sec + 100) // one rotation across a long idle gap
	if _, _, exited := a.noteConnect(sec + 101); !exited {
		t.Fatal("idle gap did not drain the storm")
	}
}

// TestStormTightensAndRelaxes drives a storm end-to-end through the
// endpoint: a burst within one virtual second trips the detector, the
// admit cap sheds the rest with ErrAdmissionStorm, and after two calm
// seconds admission is back to normal. The manual clock makes the
// second-bucket arithmetic deterministic.
func TestStormTightensAndRelaxes(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	rec := telemetry.New(telemetry.Options{Clock: clk})
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: 1000,
		Admission: AdmissionConfig{StormRate: 10, StormAdmitPerSec: 5},
		Accept:    acceptAll,
		OnConn:    func(c *Conn) { c.OnDeliver(func([]byte) {}) },
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()

	// The reboot burst: 50 connects in one second.
	for i := 0; i < 50; i++ {
		dialIn(t, clk, net, i)
	}
	s := epS.Snapshot()
	if !s.StormActive || s.StormsDetected != 1 {
		t.Fatalf("StormActive=%v StormsDetected=%d after burst", s.StormActive, s.StormsDetected)
	}
	// The first 10 attempts are below the rate and admitted; everything
	// after the detector trips is over the (already-spent) admit cap.
	if s.Accepted != 10 {
		t.Fatalf("Accepted=%d, want 10", s.Accepted)
	}
	if s.ShedStorm != 40 {
		t.Fatalf("ShedStorm=%d, want 40", s.ShedStorm)
	}

	// Drain: a trickle of connects across calm seconds relaxes admission.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		dialIn(t, clk, net, 100+i)
	}
	s = epS.Snapshot()
	if s.StormActive {
		t.Fatal("storm still active after two calm seconds")
	}
	// The trickle itself was admitted (under the cap while the storm
	// lasted, unrestricted after).
	if s.Accepted != 13 {
		t.Fatalf("Accepted=%d after drain, want 13", s.Accepted)
	}

	// The detector's transitions are in the event ring.
	var sawEnter, sawExit bool
	snap := rec.Snapshot(false)
	for _, e := range snap.Events {
		if e.Kind == telemetry.EventShed {
			switch e.Cause {
			case stormCauseEnter:
				sawEnter = true
			case stormCauseExit:
				sawExit = true
			}
		}
	}
	if !sawEnter || !sawExit {
		t.Fatalf("storm events missing: enter=%v exit=%v", sawEnter, sawExit)
	}
	if rec.GaugeValue(telemetry.GaugeStormActive) != 0 {
		t.Fatal("storm gauge still set")
	}
}

// TestRedialStormLosesNothing is a fleet reboot on the virtual clock:
// every peer redials a small-capacity server at once, over the storm
// threshold, while one admitted "victim" connection keeps sending. Three
// things must hold together: every redial is either admitted or counted
// as shed (never silent), the victim loses nothing, and the detector
// trips during the storm and relaxes once it passes.
func TestRedialStormLosesNothing(t *testing.T) {
	const (
		maxConns  = 256
		stormRate = 500
		attempts  = 1200
	)
	clk := newTestClock()
	net := newTestNet(clk)
	var victimDelivered int
	var victimIn *Conn
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: maxConns,
		Admission: AdmissionConfig{StormRate: stormRate, Seed: 7},
		Accept:    acceptAll,
		OnConn: func(c *Conn) {
			if victimIn == nil {
				victimIn = c
				c.OnDeliver(func([]byte) { victimDelivered++ })
				return
			}
			c.OnDeliver(func([]byte) {})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()

	// The victim redials first — the connection that made it back in —
	// and keeps talking through the whole storm.
	epV, err := NewEndpoint(Config{Transport: net.Endpoint("V"), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer epV.Close()
	victim, err := epV.Dial(PeerSpec{
		Addr: "S", LocalID: []byte("victim"), RemoteID: []byte("srv"),
		LocalPort: 7, RemotePort: 9, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	victimSent := 0
	victimSend := func() {
		t.Helper()
		for {
			err := victim.Send([]byte("still here"))
			if err == nil {
				victimSent++
				return
			}
			if !errors.Is(err, ErrBackpressure) {
				t.Fatal(err)
			}
			clk.Advance(20 * time.Millisecond)
		}
	}
	victimSend()

	before := epS.Snapshot()
	offered := 0
	// The storm: 500 redials per virtual second, at the detector's
	// threshold, so it must trip.
	for i := 0; i < attempts; i++ {
		dialIn(t, clk, net, i)
		offered++
		if i%16 == 15 {
			victimSend()
		}
		if i%500 == 499 {
			clk.Advance(time.Second)
		}
	}
	if s := epS.Snapshot(); s.StormsDetected == 0 || !s.StormActive {
		t.Fatalf("storm of %d redials/s: StormsDetected=%d StormActive=%v",
			stormRate, s.StormsDetected, s.StormActive)
	}
	// Calm seconds carrying only a trickle of redials: the detector
	// must relax.
	for s := 0; s < 5; s++ {
		clk.Advance(time.Second)
		dialIn(t, clk, net, attempts+s)
		offered++
		victimSend()
	}
	clk.Advance(time.Second)
	dialIn(t, clk, net, attempts+5)
	offered++

	after := epS.Snapshot()
	admitted := after.Accepted - before.Accepted
	shed := after.ShedTotal - before.ShedTotal
	if admitted+shed != uint64(offered) {
		t.Fatalf("%d redials but admitted %d + shed %d (silent loss)", offered, admitted, shed)
	}
	if after.ShedStorm == 0 || after.ShedFull == 0 {
		t.Fatalf("ShedStorm=%d ShedFull=%d, want both (storm cap, then capacity)",
			after.ShedStorm, after.ShedFull)
	}
	if victimDelivered != victimSent {
		t.Fatalf("victim sent %d, delivered %d — admitted traffic lost", victimSent, victimDelivered)
	}
	if after.StormActive {
		t.Fatal("storm detector still engaged after calm seconds")
	}
}

// TestLoadGaugesAndTableAccounting: the occupancy gauges and table-memory
// stats surface endpoint load.
func TestLoadGaugesAndTableAccounting(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	rec := telemetry.New(telemetry.Options{Clock: clk})
	epS, err := NewEndpoint(Config{
		Transport: net.Endpoint("S"), Clock: clk, MaxConns: 4,
		Accept:    acceptAll,
		OnConn:    func(c *Conn) { c.OnDeliver(func([]byte) {}) },
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epS.Close()
	dialIn(t, clk, net, 0)
	dialIn(t, clk, net, 1)
	if got := rec.GaugeValue(telemetry.GaugeConns); got != 2 {
		t.Fatalf("GaugeConns=%d, want 2", got)
	}
	if got := rec.GaugeValue(telemetry.GaugeOccupancyPct); got != 50 {
		t.Fatalf("GaugeOccupancyPct=%d, want 50", got)
	}
	if got := rec.GaugeValue(telemetry.GaugeTableEntries); got != 2 {
		t.Fatalf("GaugeTableEntries=%d, want 2", got)
	}
	s := epS.Snapshot()
	if s.TableEntries != 2 {
		t.Fatalf("TableEntries=%d, want 2 (one learned cookie per client)", s.TableEntries)
	}
	if s.TableSlots < s.TableEntries || s.TableBytes != s.TableSlots*tableSlotBytes {
		t.Fatalf("TableSlots=%d TableBytes=%d inconsistent", s.TableSlots, s.TableBytes)
	}
	if s.TableBytesPerEntry <= 0 {
		t.Fatal("TableBytesPerEntry not reported")
	}
	snap := rec.Snapshot(false)
	if snap.Gauges["conns"] != 2 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
}

// TestShedEventRecorded: the first refusal lands in the event ring (the
// rest are rate-limited), so shedding is observable, not just counted.
func TestShedEventRecorded(t *testing.T) {
	clk := newTestClock()
	net := newTestNet(clk)
	rec := telemetry.New(telemetry.Options{Clock: clk})
	ep, err := NewEndpoint(Config{
		Transport: net.Endpoint("A"), Clock: clk, MaxConns: 1, Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if _, err := ep.Dial(PeerSpec{Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"), LocalPort: 1, RemotePort: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Dial(PeerSpec{Addr: "B", LocalID: []byte("a"), RemoteID: []byte("b"), LocalPort: 2, RemotePort: 9}); !errors.Is(err, ErrAdmissionFull) {
		t.Fatalf("err=%v, want ErrAdmissionFull", err)
	}
	snap := rec.Snapshot(false)
	found := false
	for _, e := range snap.Events {
		if e.Kind == telemetry.EventShed && e.Cause == shedCauseFull {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed event in ring: %+v", snap.Events)
	}
}

// TestShedPolicyString pins the policy names.
func TestShedPolicyString(t *testing.T) {
	for p, want := range map[ShedPolicy]string{
		ShedRejectNew: "reject-new", ShedEvictIdle: "evict-idle",
		ShedEarlyDrop: "early-drop", ShedPolicy(99): "?",
	} {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", p, got, want)
		}
	}
}
