package layers

import (
	"bytes"
	"fmt"
	"testing"

	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/stack"
)

// Canonical protocol processing (§3.1) requires pre phases to leave
// protocol state untouched — that is what lets the engine transmit and
// deliver before any state update. These tests snapshot each layer's full
// state (fmt %+v reaches scalar fields, map contents and slice contents)
// around its pre phases and demand bit-for-bit equality whatever the
// verdict: a layer acts on a message it consumes or drops in its own
// PostDeliver, never in a pre phase. Nor does a pre phase touch the
// message-specific header region: the packet filters are the only code
// for those fields (§3.3), so the region must come out of a pre phase
// byte for byte as it went in.

func snapshot(l stack.Layer) string { return fmt.Sprintf("%+v", l) }

// msgSpecSentinel fills env's message-specific region with a sentinel and
// returns a copy to compare against after a pre phase.
func msgSpecSentinel(env *filter.Env) []byte {
	hdr := env.Hdr[header.MsgSpec]
	for i := range hdr {
		hdr[i] = 0xA5
	}
	return bytes.Clone(hdr)
}

// pureLayers builds one instance of every layer type, plus a message
// generator appropriate for it.
func purityCases(t *testing.T) []struct {
	name  string
	layer stack.Layer
} {
	t.Helper()
	return []struct {
		name  string
		layer stack.Layer
	}{
		{"chksum", NewChksum()},
		{"frag", NewFrag()},
		{"frag-split", &Frag{Threshold: 4}}, // PreSend consumes the probe
		{"window", NewWindow()},
		{"heartbeat", &Heartbeat{Interval: 1 << 30}},
		{"stamp", NewStamp()},
		{"ident", newIdent()},
		{"secure", NewSecure([]byte("purity key"), []byte("a"), []byte("b"), 1, 2)},
	}
}

func TestPreSendPurity(t *testing.T) {
	for _, tc := range purityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.layer)
			m, env := h.env([]byte("purity-probe"))
			defer m.Free()
			region := msgSpecSentinel(env)
			before := snapshot(tc.layer)
			v := tc.layer.PreSend(h.ctx(env), m)
			after := snapshot(tc.layer)
			if before != after {
				t.Fatalf("PreSend (%v) mutated state:\nbefore %s\nafter  %s", v, before, after)
			}
			if got := env.Hdr[header.MsgSpec]; !bytes.Equal(got, region) {
				t.Fatalf("PreSend (%v) wrote the message-specific region: %x, was %x", v, got, region)
			}
		})
	}
}

func TestPreDeliverPurity(t *testing.T) {
	for _, tc := range purityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.layer)
			// Build a deliverable message: run the send pre phase
			// first so headers are coherent for this layer.
			m, env := h.env([]byte("purity-probe"))
			defer m.Free()
			tc.layer.PreSend(h.ctx(env), m)
			region := msgSpecSentinel(env)
			before := snapshot(tc.layer)
			v := tc.layer.PreDeliver(h.ctx(env), m)
			after := snapshot(tc.layer)
			if before != after {
				t.Fatalf("PreDeliver (%v) mutated state:\nbefore %s\nafter  %s", v, before, after)
			}
			if got := env.Hdr[header.MsgSpec]; !bytes.Equal(got, region) {
				t.Fatalf("PreDeliver (%v) wrote the message-specific region: %x, was %x", v, got, region)
			}
		})
	}
}

// TestPreDeliverPurityOnControlFrames covers the frames a layer consumes
// or drops — the window's ack, nak, duplicate and future frames, a
// fragment, a keepalive: each leaves its bookkeeping to PostDeliver.
func TestPreDeliverPurityOnControlFrames(t *testing.T) {
	w := NewWindow()
	w.Naks = true
	h := windowHarness(t, w)
	h.send([]byte("outstanding")) // so acks/naks have something to touch
	m0, env0 := dataFrame(h, w, 0, 0, []byte("zero"))
	defer m0.Free()
	h.receive(env0, m0) // expected is now 1
	cases := []struct {
		name     string
		typ      uint64
		seq, ack uint32
		want     stack.Verdict
	}{
		{"ack", TypeAck, 0, 1, stack.Consume},
		{"nak", TypeNak, 0, 0, stack.Consume},
		{"dup", TypeData, 0, 0, stack.Drop},
		{"future", TypeData, 5, 0, stack.Consume}, // gap
		{"in-seq", TypeData, 1, 0, stack.Continue},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, env := ctrlFrame(h, w, c.typ, c.seq, c.ack)
			defer m.Free()
			before := snapshot(w)
			if v := w.PreDeliver(h.ctx(env), m); v != c.want {
				t.Fatalf("window.PreDeliver(%s) = %v, want %v", c.name, v, c.want)
			}
			after := snapshot(w)
			if before != after {
				t.Fatalf("window.PreDeliver(%s) mutated state:\nbefore %s\nafter  %s",
					c.name, before, after)
			}
		})
	}

	f, hb := NewFrag(), &Heartbeat{Interval: 1 << 30}
	for _, c := range []struct {
		name  string
		h     *harness
		layer stack.Layer
		bit   *header.Handle // set at Init
	}{
		{"fragment", newHarness(t, f), f, &f.isFrag},
		{"keepalive", newHarness(t, hb), hb, &hb.hb},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, env := c.h.env([]byte("x"))
			defer m.Free()
			c.bit.Write(env.Hdr[header.ProtoSpec], env.Order, 1)
			before := snapshot(c.layer)
			if v := c.layer.PreDeliver(c.h.ctx(env), m); v != stack.Consume {
				t.Fatalf("%s: verdict %v, want consume", c.name, v)
			}
			if after := snapshot(c.layer); before != after {
				t.Fatalf("PreDeliver(%s) mutated state:\nbefore %s\nafter  %s", c.name, before, after)
			}
		})
	}
}
