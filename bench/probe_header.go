package main

import (
	"paccel/internal/bits"
	"paccel/internal/header"
)

var _ = probeNames("ns", "header.compile_ns", "header.field_rw_ns")

func probeHeader(p *prober) {
	h, err := newStackHarness()
	if err != nil {
		p.fail(err)
		return
	}
	defer h.close()
	// Registering the default stack's fields and compiling the layout is
	// what every Dial pays.
	fields := h.schema.Fields()
	p.loop("header.compile_ns", func(n int) {
		for i := 0; i < n; i++ {
			s := header.New()
			for _, f := range fields {
				var err error
				if f.IsBlob() {
					_, err = s.AddBytes(f.Class(), f.Layer(), f.Name(), f.SizeBits()/8)
				} else {
					_, err = s.AddField(f.Class(), f.Layer(), f.Name(), f.SizeBits(), header.DontCare)
				}
				if err != nil {
					p.fail(err)
					return
				}
			}
			if err := s.Compile(); err != nil {
				p.fail(err)
				return
			}
		}
	})
	// One write and one read of the window's 32-bit sequence field.
	seq := h.field("window", "seq")
	hdr := make([]byte, h.schema.Size(header.ProtoSpec))
	p.loop("header.field_rw_ns", func(n int) {
		var v uint64
		for i := 0; i < n; i++ {
			seq.Write(hdr, bits.BigEndian, v)
			v = seq.Read(hdr, bits.BigEndian) + 1
		}
	})
}
