package main

import (
	"fmt"

	"paccel/internal/filter"
)

var _ = probeNames("ns", "filter.send_run_8b_ns", "filter.recv_run_8b_ns", "filter.send_run_1k_ns", "filter.recv_run_1k_ns")

// probeFilter times Program.Run on the default stack's send and receive
// programs: the length and checksum fill-in and check of every message.
func probeFilter(p *prober) {
	h, err := newStackHarness()
	if err != nil {
		p.fail(err)
		return
	}
	defer h.close()
	for _, sz := range []struct {
		name string
		n    int
	}{{"8b", 8}, {"1k", 1024}} {
		f := h.newFrame(make([]byte, sz.n))
		if st := h.sendF.Run(&f.env); st != filter.StatusOK {
			p.fail(fmt.Errorf("bench: send filter status %d on a %s message", st, sz.name))
		}
		if st := h.recvF.Run(&f.env); st != filter.StatusOK {
			p.fail(fmt.Errorf("bench: recv filter status %d on a %s message", st, sz.name))
		}
		p.loop("filter.send_run_"+sz.name+"_ns", func(n int) {
			for i := 0; i < n; i++ {
				h.sendF.Run(&f.env)
			}
		})
		p.loop("filter.recv_run_"+sz.name+"_ns", func(n int) {
			for i := 0; i < n; i++ {
				h.recvF.Run(&f.env)
			}
		})
		f.m.Free()
	}
}
