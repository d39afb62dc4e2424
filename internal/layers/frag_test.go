package layers

import (
	"bytes"
	"testing"

	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/stack"
)

func TestFragSmallMessagePassesThrough(t *testing.T) {
	f := &Frag{Threshold: 10}
	h := newHarness(t, f)
	m, env := h.env([]byte("short"))
	defer m.Free()
	if v, _ := h.st.PreSend(h.ctx(env), m); v != stack.Continue {
		t.Fatal("small message not passed through")
	}
	if f.isFrag.Read(env.Hdr[header.ProtoSpec], env.Order) != 0 {
		t.Fatal("small message marked as fragment")
	}
}

// Frag rejects an oversized message by declaring its threshold as the
// stack's frame limit, which the engine routes on before any filter runs;
// it emits no filter code. A lower limit declared first stays.
func TestFragSendFilterRejectsOversize(t *testing.T) {
	for _, tc := range []struct{ declared, want int }{{0, 10}, {20, 10}, {5, 5}} {
		sb, rb := filter.NewBuilder(), filter.NewBuilder()
		ic := &stack.InitContext{Schema: header.New(), SendFilter: sb, RecvFilter: rb, MaxPayload: tc.declared}
		if err := (&Frag{Threshold: 10}).Init(ic); err != nil {
			t.Fatal(err)
		}
		if ic.MaxPayload != tc.want {
			t.Fatalf("declared %d: frame limit %d, want %d", tc.declared, ic.MaxPayload, tc.want)
		}
		if sb.Len() != 0 || rb.Len() != 0 {
			t.Fatalf("frag emitted filter code: %d send, %d recv instructions", sb.Len(), rb.Len())
		}
	}
}

func TestFragSplitsLargeMessage(t *testing.T) {
	f := &Frag{Threshold: 10}
	h := newHarness(t, f)
	payload := bytes.Repeat([]byte("abcdefghij"), 3) // 30 bytes = 3 fragments
	payload = append(payload, 'k')                   // 31 bytes = 4 fragments
	m, env := h.env(payload)
	defer m.Free()
	if v, _ := h.st.PreSend(h.ctx(env), m); v != stack.Consume {
		t.Fatal("large message not consumed")
	}
	if len(h.svc.controls) != 4 {
		t.Fatalf("fragments = %d, want 4", len(h.svc.controls))
	}
	var rebuilt []byte
	for i, c := range h.svc.controls {
		if c.from != f {
			t.Fatal("fragment not attributed to frag layer")
		}
		hdr := c.env.Hdr[header.ProtoSpec]
		if f.isFrag.Read(hdr, c.env.Order) != 1 {
			t.Fatalf("fragment %d missing isfrag bit", i)
		}
		wantLast := uint64(0)
		if i == 3 {
			wantLast = 1
		}
		if f.last.Read(hdr, c.env.Order) != wantLast {
			t.Fatalf("fragment %d last bit = %d, want %d", i,
				f.last.Read(hdr, c.env.Order), wantLast)
		}
		rebuilt = append(rebuilt, c.env.Payload...)
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("fragments do not reassemble to the original payload")
	}
}

func TestFragReassembly(t *testing.T) {
	f := &Frag{Threshold: 4}
	h := newHarness(t, f)
	chunks := [][]byte{[]byte("abcd"), []byte("efgh"), []byte("ij")}
	for i, c := range chunks {
		m, env := h.env(c)
		hdr := env.Hdr[header.ProtoSpec]
		f.isFrag.Write(hdr, env.Order, 1)
		f.last.Write(hdr, env.Order, b1(i == len(chunks)-1))
		if v := h.receive(env, m); v != stack.Consume {
			t.Fatalf("fragment %d not consumed", i)
		}
	}
	if len(h.svc.enq) != 1 {
		t.Fatalf("reassembled deliveries = %d", len(h.svc.enq))
	}
	if !bytes.Equal(h.svc.enq[0].m.Payload(), []byte("abcdefghij")) {
		t.Fatalf("reassembled = %q", h.svc.enq[0].m.Payload())
	}
	if f.AssemblingBytes() != 0 {
		t.Fatal("reassembly buffer not cleared")
	}
}

func TestFragPreDeliverPure(t *testing.T) {
	f := &Frag{Threshold: 4}
	h := newHarness(t, f)
	m, env := h.env([]byte("abcd"))
	defer m.Free()
	f.isFrag.Write(env.Hdr[header.ProtoSpec], env.Order, 1)
	ctx := h.ctx(env)
	v, at := h.st.PreDeliver(ctx, m)
	if f.AssemblingBytes() != 0 {
		t.Fatal("PreDeliver mutated reassembly state before post-processing")
	}
	h.st.PostDeliverSpan(ctx, m, v, at, nil)
	if f.AssemblingBytes() != 4 {
		t.Fatal("PostDeliver did not take the consumed fragment")
	}
}

func TestFragNonFragmentContinues(t *testing.T) {
	f := NewFrag()
	h := newHarness(t, f)
	m, env := h.env([]byte("plain"))
	defer m.Free()
	if v, _ := h.st.PreDeliver(h.ctx(env), m); v != stack.Continue {
		t.Fatal("plain message consumed by frag")
	}
}

func TestFragPrimePredictsNonFragment(t *testing.T) {
	f := NewFrag()
	h := newHarness(t, f)
	for _, hdr := range [][]byte{
		h.base.PredictSend[header.ProtoSpec],
		h.base.PredictRecv[header.ProtoSpec],
	} {
		if f.isFrag.Read(hdr, h.base.Order) != 0 || f.last.Read(hdr, h.base.Order) != 0 {
			t.Fatal("prediction marks fragments")
		}
	}
}

func TestFragDefaultThreshold(t *testing.T) {
	f := NewFrag()
	if f.threshold() != DefaultFragThreshold {
		t.Fatal("default threshold")
	}
	f.Threshold = -1
	if f.threshold() != DefaultFragThreshold {
		t.Fatal("negative threshold not defaulted")
	}
}
