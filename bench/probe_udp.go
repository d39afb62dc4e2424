package main

import (
	"errors"
	"time"

	"paccel/internal/udp"
)

var _ = probeNames("ns", "udp.raw_send_ns", "udp.raw_batch64_ns_per_dgram")
var _ = probeNames("us", "udp.raw_rt_us")

// probeUDP times the UDP transport alone over host loopback, no engine:
// one send, a 64-datagram batch, and a transport-only echo — our "35 us
// wire". rt_udp_8b's p50 minus udp.raw_rt_us is what the engine adds over
// real I/O.
func probeUDP(p *prober) {
	a, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		p.fail(err)
		return
	}
	defer a.Close()
	b, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		p.fail(err)
		return
	}
	defer b.Close()
	dst := b.LocalAddr()
	d := make([]byte, 30)

	done := make(chan struct{}, 1)
	b.SetHandler(func(src string, dg []byte) { _ = b.Send(src, dg) }) // an echo lost is a stall, caught below
	a.SetHandler(func(string, []byte) { done <- struct{}{} })
	p.loopScaled("udp.raw_rt_us", 1000, func(n int) {
		stalled := time.After(10 * time.Second)
		for i := 0; i < n; i++ {
			if err := a.Send(dst, d); err != nil {
				p.fail(err)
				return
			}
			select {
			case <-done:
			case <-stalled:
				p.fail(errors.New("bench: udp echo probe stalled"))
				return
			}
		}
	})

	// The receiver drains what it can; what overflows its socket buffer is
	// dropped by the kernel, which does not slow the sender.
	b.SetHandler(func(string, []byte) {})
	p.loop("udp.raw_send_ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send(dst, d); err != nil {
				p.fail(err)
				return
			}
		}
	})
	burst := make([][]byte, 64)
	for i := range burst {
		burst[i] = d
	}
	p.loopScaled("udp.raw_batch64_ns_per_dgram", 64, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.SendBatch(dst, burst); err != nil {
				p.fail(err)
				return
			}
		}
	})
}
