package main

import (
	"paccel/internal/message"
	"paccel/internal/stack"
)

var layerNames = []string{"chksum", "frag", "window", "ident"}

var _ = func() bool {
	for _, l := range layerNames {
		for _, ph := range []string{"pre_send_ns", "post_send_ns", "pre_deliver_ns", "post_deliver_ns"} {
			probeNames("ns", "layers."+l+"."+ph)
		}
	}
	return true
}()

// probeLayers times each layer of the default stack phase by phase — our
// Figure 4 pre/post split. Each layer gets a fresh stack: only the probed
// layer's phases run, the others just keep the frames well-formed.
func probeLayers(p *prober) {
	for _, name := range layerNames {
		h, err := newStackHarness()
		if err != nil {
			p.fail(err)
			return
		}
		var l stack.Layer
		for _, c := range h.layers {
			if c.Name() == name {
				l = c
			}
		}
		if l == nil {
			p.fail(errNoLayer(name))
			h.close()
			continue
		}
		h.probePhases(p, "layers."+name+".", phases{
			preSend:     func(c *stack.Context, m *message.Msg) { l.PreSend(c, m) },
			postSend:    l.PostSend,
			preDeliver:  func(c *stack.Context, m *message.Msg) { l.PreDeliver(c, m) },
			postDeliver: l.PostDeliver,
		})
		h.close()
	}
}

type errNoLayer string

func (e errNoLayer) Error() string { return "bench: default stack has no layer " + string(e) }
