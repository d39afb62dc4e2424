package main

import "paccel/internal/message"

var _ = probeNames("ns", "message.new_free_8b_ns", "message.new_free_1k_ns", "message.clone_1k_ns", "message.push_pop_ns")

func probeMessage(p *prober) {
	p8, p1k := make([]byte, 8), make([]byte, 1024)
	p.loop("message.new_free_8b_ns", func(n int) {
		for i := 0; i < n; i++ {
			message.New(p8).Free()
		}
	})
	p.loop("message.new_free_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			message.New(p1k).Free()
		}
	})
	// Clone is the window layer's per-send retransmission copy.
	m := message.New(p1k)
	p.loop("message.clone_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			m.Clone().Free()
		}
	})
	m.Free()
	// 22 bytes: the default stack's normal header.
	m = message.New(p8)
	p.loop("message.push_pop_ns", func(n int) {
		for i := 0; i < n; i++ {
			m.Push(22)
			if _, err := m.Pop(22); err != nil {
				p.fail(err)
				return
			}
		}
	})
	m.Free()
}
