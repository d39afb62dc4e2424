package udp

// Tests for the scattered-destination send (SendBatchTo, the path group
// fanout takes over a real socket), the portable loops the vectorized
// path falls back to, and the telemetry hookup.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"paccel/internal/telemetry"
)

// v6Target is a destination an IPv4 socket cannot reach: the raw path
// cannot encode it, so the send falls back to the portable loop, where
// the stdlib refuses it before any system call.
const v6Target = "[::1]:9"

// TestSendBatchToLoopback sends one burst that alternates between two
// receivers and crosses the 64-header chunk boundary: each receiver gets
// its datagrams intact, in order, from the sender's address, and the
// whole burst counts as one batch.
func TestSendBatchToLoopback(t *testing.T) {
	a, b := pair(t)
	c, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gotB, gotC collector
	gotB.install(b)
	gotC.install(c)

	const n = 70
	dsts := make([]string, n)
	ds := make([][]byte, n)
	for i := range ds {
		dsts[i] = b.LocalAddr()
		if i%2 == 1 {
			dsts[i] = c.LocalAddr()
		}
		ds[i] = []byte(fmt.Sprintf("to-%02d", i))
	}
	sent, err := a.SendBatchTo(dsts, ds)
	if err != nil || sent != n {
		t.Fatalf("SendBatchTo = (%d, %v), want (%d, nil)", sent, err, n)
	}
	for k, got := range []*collector{&gotB, &gotC} {
		got.waitN(t, n/2)
		got.mu.Lock()
		for j, d := range got.data {
			if want := ds[2*j+k]; !bytes.Equal(d, want) {
				t.Fatalf("receiver %d datagram %d = %q, want %q", k, j, d, want)
			}
			if got.srcs[j] != a.LocalAddr() {
				t.Fatalf("receiver %d src = %q, want %q", k, got.srcs[j], a.LocalAddr())
			}
		}
		got.mu.Unlock()
	}
	st := a.Stats()
	if st.BatchSends != 1 || st.BatchDatagrams != n {
		t.Fatalf("stats = %+v, want BatchSends=1 BatchDatagrams=%d", st, n)
	}
	if vectorized() && st.TxSyscalls >= n {
		t.Fatalf("TxSyscalls = %d for %d datagrams, want sendmmsg batching", st.TxSyscalls, n)
	}
}

// TestSendBatchToPrefixContract checks the BatchToTransport contract: a
// length mismatch sends nothing, and a burst that stops early reports the
// prefix it transmitted and an error describing the datagram at that
// index — an oversized datagram, an unresolvable destination, or one the
// socket's address family cannot reach (which takes the portable loop).
func TestSendBatchToPrefixContract(t *testing.T) {
	a, b := pair(t)
	var got collector
	got.install(b)
	dst := b.LocalAddr()

	if sent, err := a.SendBatchTo([]string{dst}, nil); sent != 0 || err == nil {
		t.Fatalf("mismatched SendBatchTo = (%d, %v), want (0, error)", sent, err)
	}
	if sent, err := a.SendBatchTo(nil, nil); sent != 0 || err != nil {
		t.Fatalf("empty SendBatchTo = (%d, %v), want (0, nil)", sent, err)
	}

	cases := []struct {
		name    string
		dsts    []string
		ds      [][]byte
		sent    int
		tooBig  bool
		arrived []string
	}{
		{"oversized", []string{dst, dst, dst, dst},
			[][]byte{[]byte("big-0"), []byte("big-1"), make([]byte, MaxDatagram+1), []byte("never")},
			2, true, []string{"big-0", "big-1"}},
		{"unresolvable", []string{dst, "no-port", dst},
			[][]byte{[]byte("res-0"), []byte("never"), []byte("never")},
			1, false, []string{"res-0"}},
		{"family", []string{dst, v6Target, dst},
			[][]byte{[]byte("fam-0"), []byte("never"), []byte("never")},
			1, false, []string{"fam-0"}},
	}
	var want []string
	for _, tc := range cases {
		sent, err := a.SendBatchTo(tc.dsts, tc.ds)
		if sent != tc.sent || err == nil {
			t.Fatalf("%s: SendBatchTo = (%d, %v), want (%d, error)", tc.name, sent, err, tc.sent)
		}
		if errors.Is(err, ErrDatagramTooLarge) != tc.tooBig {
			t.Fatalf("%s: err = %v, ErrDatagramTooLarge want %v", tc.name, err, tc.tooBig)
		}
		want = append(want, tc.arrived...)
	}
	got.waitN(t, len(want))
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, w := range want {
		if string(got.data[i]) != w {
			t.Fatalf("arrival %d = %q, want %q (all: %q)", i, got.data[i], w, got.data)
		}
	}
	if st := a.Stats(); st.BatchDatagrams != 4 {
		t.Fatalf("BatchDatagrams = %d, want 4 (only the transmitted prefixes)", st.BatchDatagrams)
	}
}

// TestSendBatchUnreachableFamily checks the single-destination batch's
// portable loop: a destination the raw path cannot encode is refused at
// index 0, an oversized head datagram as ErrDatagramTooLarge.
func TestSendBatchUnreachableFamily(t *testing.T) {
	a, _ := pair(t)
	sent, err := a.SendBatch(v6Target, [][]byte{[]byte("x"), []byte("y")})
	if sent != 0 || err == nil || errors.Is(err, ErrDatagramTooLarge) {
		t.Fatalf("SendBatch(%s) = (%d, %v), want (0, family error)", v6Target, sent, err)
	}
	sent, err = a.SendBatch(v6Target, [][]byte{make([]byte, MaxDatagram+1)})
	if sent != 0 || !errors.Is(err, ErrDatagramTooLarge) {
		t.Fatalf("oversized SendBatch = (%d, %v), want (0, ErrDatagramTooLarge)", sent, err)
	}
}

// TestOffloadCause pins the probe verdict each offload state records.
func TestOffloadCause(t *testing.T) {
	for _, tc := range []struct {
		gso, gro bool
		want     string
	}{
		{true, true, "udp: offload probe: gso+gro"},
		{true, false, "udp: offload probe: gso only"},
		{false, true, "udp: offload probe: gro only"},
		{false, false, "udp: offload probe: unsupported"},
	} {
		tr := &Transport{groOn: tc.gro}
		tr.gsoOn.Store(tc.gso)
		if got := tr.offloadCause(); got != tc.want {
			t.Fatalf("offloadCause(gso=%v, gro=%v) = %q, want %q", tc.gso, tc.gro, got, tc.want)
		}
	}
}

// TestSetTelemetry checks the transport's telemetry hookup: installing a
// recorder logs the offload verdict as a state event, a failed send logs
// a transport-scoped fault, and nil uninstalls.
func TestSetTelemetry(t *testing.T) {
	a, _ := pair(t)
	rec := telemetry.New(telemetry.Options{})
	a.SetTelemetry(rec)
	if _, err := a.SendBatch(v6Target, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("send to an unreachable family succeeded")
	}
	a.SetTelemetry(nil)
	if _, err := a.SendBatch(v6Target, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("send to an unreachable family succeeded")
	}
	ev := rec.Snapshot(false).Events
	if len(ev) != 2 {
		t.Fatalf("events = %+v, want the probe verdict and one send fault", ev)
	}
	if ev[0].Kind != telemetry.EventState || ev[0].Cause != a.offloadCause() {
		t.Fatalf("event 0 = %+v, want state %q", ev[0], a.offloadCause())
	}
	if ev[1].Kind != telemetry.EventFault || ev[1].Cause != "udp: socket send error" || ev[1].Conn != 0 {
		t.Fatalf("event 1 = %+v, want transport-scoped send fault", ev[1])
	}
}
