package stack

import (
	"testing"

	"paccel/internal/message"
)

// probe is a test layer recording phase invocations into a shared log.
type probe struct {
	name    string
	log     *[]string
	preSend Verdict
	preDel  Verdict
}

func (p *probe) Name() string            { return p.name }
func (p *probe) Init(*InitContext) error { return nil }
func (p *probe) Prime(*Context)          { *p.log = append(*p.log, p.name+".prime") }
func (p *probe) PreSend(*Context, *message.Msg) Verdict {
	*p.log = append(*p.log, p.name+".preS")
	return p.preSend
}
func (p *probe) PostSend(*Context, *message.Msg) {
	*p.log = append(*p.log, p.name+".postS")
}
func (p *probe) PreDeliver(*Context, *message.Msg) Verdict {
	*p.log = append(*p.log, p.name+".preD")
	return p.preDel
}
func (p *probe) PostDeliver(ctx *Context, _ *message.Msg) {
	if ctx.Verdict != Continue {
		*p.log = append(*p.log, p.name+".postD("+ctx.Verdict.String()+")")
		return
	}
	*p.log = append(*p.log, p.name+".postD")
}

func probes(log *[]string, names ...string) []*probe {
	ps := make([]*probe, len(names))
	for i, n := range names {
		ps[i] = &probe{name: n, log: log}
	}
	return ps
}

func mkStack(t *testing.T, ps []*probe) *Stack {
	t.Helper()
	ls := make([]Layer, len(ps))
	for i, p := range ps {
		ls[i] = p
	}
	s, err := NewStack(ls...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func eq(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log = %v, want %v", got, want)
		}
	}
}

func TestPhaseOrdering(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c")
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()

	s.Prime(&Context{})
	eq(t, log, "a.prime", "b.prime", "c.prime")

	log = nil
	if v, i := s.PreSend(&Context{}, m); v != Continue || i != -1 {
		t.Fatalf("PreSend = %v, %d", v, i)
	}
	eq(t, log, "a.preS", "b.preS", "c.preS") // top to bottom

	log = nil
	s.PostSend(&Context{}, m)
	eq(t, log, "a.postS", "b.postS", "c.postS")

	log = nil
	if v, i := s.PreDeliver(&Context{}, m); v != Continue || i != -1 {
		t.Fatalf("PreDeliver = %v, %d", v, i)
	}
	eq(t, log, "c.preD", "b.preD", "a.preD") // bottom to top

	log = nil
	s.PostDeliver(&Context{}, m)
	eq(t, log, "c.postD", "b.postD", "a.postD")
}

func TestPreSendStopsAtVerdict(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c")
	ps[1].preSend = Consume
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()
	v, i := s.PreSend(&Context{}, m)
	if v != Consume || i != 1 {
		t.Fatalf("got %v, %d", v, i)
	}
	eq(t, log, "a.preS", "b.preS") // c never ran
}

func TestPreDeliverStopsAtVerdict(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c")
	ps[1].preDel = Drop
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()
	v, i := s.PreDeliver(&Context{}, m)
	if v != Drop || i != 1 {
		t.Fatalf("got %v, %d", v, i)
	}
	eq(t, log, "c.preD", "b.preD") // a never ran
}

func TestControlSendOnlyBelow(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c")
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()
	if v, _ := s.ControlSend(&Context{}, m, ps[1]); v != Continue {
		t.Fatal("control send failed")
	}
	eq(t, log, "c.preS") // only below b

	log = nil
	s.ControlPostSend(&Context{}, m, ps[1])
	eq(t, log, "c.postS")
}

func TestDeliverAboveOnly(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c")
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()
	if v, _ := s.DeliverAbove(&Context{}, m, ps[1]); v != Continue {
		t.Fatal("deliver above failed")
	}
	eq(t, log, "a.preD") // only above b

	log = nil
	s.PostDeliverSpan(&Context{}, m, Continue, -1, ps[1])
	eq(t, log, "a.postD")
}

// A layer that consumes or drops a message post-processes it first, with
// its verdict; the layers between it and the span's end follow, bottom to
// top, with Continue.
func TestPostDeliverSpan(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b", "c", "d")
	ps[2].preDel = Drop
	s := mkStack(t, ps)
	m := message.New(nil)
	defer m.Free()
	ctx := &Context{}
	v, at := s.PreDeliver(ctx, m)
	log = nil
	s.PostDeliverSpan(ctx, m, v, at, nil)
	eq(t, log, "c.postD(drop)", "d.postD")
	if ctx.Verdict != Continue {
		t.Fatalf("ctx.Verdict = %v after the span, want continue", ctx.Verdict)
	}

	// A release from d re-enters above it; b consumes.
	ps[2].preDel, ps[1].preDel = Continue, Consume
	v, at = s.DeliverAbove(ctx, m, ps[3])
	log = nil
	s.PostDeliverSpan(ctx, m, v, at, ps[3])
	eq(t, log, "b.postD(consume)", "c.postD")
}

func TestDuplicateLayerRejected(t *testing.T) {
	var log []string
	p := probes(&log, "a")[0]
	if _, err := NewStack(p, p); err == nil {
		t.Fatal("duplicate instance accepted")
	}
}

func TestIndex(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b")
	s := mkStack(t, ps)
	if s.Index(ps[0]) != 0 || s.Index(ps[1]) != 1 {
		t.Fatal("index wrong")
	}
	other := probes(&log, "x")[0]
	if s.Index(other) != -1 {
		t.Fatal("foreign layer indexed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mustIndex on foreign layer did not panic")
		}
	}()
	m := message.New(nil)
	defer m.Free()
	s.ControlSend(&Context{}, m, other)
}

func TestVerdictString(t *testing.T) {
	if Continue.String() != "continue" || Consume.String() != "consume" || Drop.String() != "drop" {
		t.Fatal("verdict names")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict")
	}
}

func TestLenAndLayers(t *testing.T) {
	var log []string
	ps := probes(&log, "a", "b")
	s := mkStack(t, ps)
	if s.Len() != 2 || len(s.Layers()) != 2 {
		t.Fatal("len mismatch")
	}
}
