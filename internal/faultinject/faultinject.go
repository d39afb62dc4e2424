// Package faultinject is a deterministic fault-injecting middleware for
// the engine's Transport contract. It wraps any transport — the simulated
// network and the real UDP socket alike — and applies a programmable
// fault plan to the datagrams crossing it: drop, duplicate, delay,
// truncate, bit-flip corrupt, stall (hold until released), and partition.
//
// Faults are selected by match rules evaluated in plan order against each
// datagram's direction, peer, and per-rule sequence number; the first rule
// that matches and fires wins, so a plan reads like a schedule ("drop the
// 3rd send", "corrupt 10% of receives from B"). All randomness comes from
// one seeded generator drawn under one lock in arrival order, so a plan
// replays identically for a given seed and traffic sequence.
//
// Buffer ownership follows the Transport contract: datagrams handed to
// the receive handler are borrowed for the duration of the call, and Send
// data is the caller's again once Send returns. The injector therefore
// never mutates a buffer it does not own — corruption and any fault that
// outlives the call (delay, stall) operate on a private copy.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// ErrClosed is returned by Send on a closed injector.
var ErrClosed = errors.New("faultinject: transport closed")

// Inner is the transport contract the injector wraps and itself
// implements. It is structurally identical to core.Transport but declared
// locally so the engine's own tests can compose the injector without an
// import cycle; the facade asserts the equivalence.
type Inner interface {
	Send(dst string, datagram []byte) error
	SetHandler(h func(src string, datagram []byte))
	LocalAddr() string
	Close() error
}

// Direction selects which way through the transport a rule applies.
type Direction uint8

// Directions. The zero value of Rule.Direction means Both.
const (
	Send Direction = 1 << iota
	Recv
	Both = Send | Recv
)

// Kind is the fault a rule injects.
type Kind uint8

// Fault kinds.
const (
	// Drop discards the datagram.
	Drop Kind = iota
	// Duplicate delivers/sends the datagram twice, back to back.
	Duplicate
	// Delay holds a copy of the datagram for Rule.Delay before it
	// proceeds; other traffic overtakes it (reordering).
	Delay
	// Truncate cuts the datagram to Rule.TruncateTo bytes (half its
	// length if zero), simulating a short read or a cut-through error.
	Truncate
	// Corrupt XORs Rule.BitMask (a random single bit if zero) into the
	// byte at Rule.Offset of a private copy of the datagram.
	Corrupt
	// Stall holds the datagram until ReleaseStalled, preserving order
	// among stalled datagrams — a freeze, not a loss.
	Stall
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	}
	return "?"
}

// Rule is one entry of a fault plan. A rule matches a datagram when its
// Direction and Peer select it; it then fires when the sequence and rate
// conditions all hold:
//
//   - Nth, if non-zero, fires only on the Nth matching datagram (1-based);
//   - Every, if non-zero, fires on every Every-th matching datagram;
//   - Rate, if non-zero, fires with that probability (seeded rng);
//   - Count, if non-zero, caps how many times the rule fires in total.
//
// A rule with none of Nth/Every/Rate set fires on every match. Rules are
// evaluated in plan order and the first rule that fires claims the
// datagram; rules earlier in the plan that matched without firing still
// count it toward their sequence, rules after the firing one never see it.
type Rule struct {
	Kind      Kind
	Direction Direction // zero means Both
	Peer      string    // match only this peer (dst on send, src on recv); "" is any

	Nth   uint64
	Every uint64
	Rate  float64
	Count uint64

	// Offset is the byte Corrupt flips (negative counts from the end,
	// -1 the last byte) and the position Truncate cuts at when
	// TruncateTo is zero. Out-of-range offsets clamp to the last byte.
	Offset int
	// BitMask is XORed into the corrupted byte; zero picks one random bit.
	BitMask byte
	// TruncateTo is the length Truncate keeps; zero keeps half.
	TruncateTo int
	// Delay is how long a Delay rule holds the datagram.
	Delay time.Duration
}

// Stats counts what the injector did, per fault kind, plus the traffic
// that crossed it.
type Stats struct {
	Sent     uint64 // datagrams entering the send side
	Received uint64 // datagrams entering the receive side

	Dropped          uint64
	Duplicated       uint64
	Delayed          uint64
	Truncated        uint64
	Corrupted        uint64
	Stalled          uint64
	PartitionDropped uint64
}

// ruleState is a Rule plus its live counters, guarded by Transport.mu.
type ruleState struct {
	Rule
	seen  uint64 // matching datagrams observed
	fired uint64 // times the rule claimed a datagram
}

// action is a fault decision made under the lock and executed outside it.
type action struct {
	kind    Kind
	fired   bool
	bitMask byte // resolved Corrupt mask
	offset  int  // resolved Corrupt/Truncate offset
	keep    int  // resolved Truncate length
	delay   time.Duration
}

// stalledDatagram is one held datagram, an owned copy.
type stalledDatagram struct {
	send bool
	peer string // dst for sends, src for receives
	data []byte
}

// Transport wraps an inner transport with the fault plan. It is itself a
// core.Transport, so endpoints compose over it unchanged.
type Transport struct {
	inner Inner
	clock vclock.Clock

	mu          sync.Mutex
	rng         *rand.Rand
	rules       []*ruleState
	partitioned map[string]bool
	stalled     []stalledDatagram
	handler     func(src string, datagram []byte)
	closed      bool
	stats       Stats

	// tel receives one EventFault per fired fault; nil disables. Guarded
	// by mu (decide runs under it).
	tel *telemetry.Recorder
}

// SetTelemetry installs a recorder: every fault the plan fires appends an
// EventFault to its event ring (injector-scoped, connection 0), with the
// kind and direction as the cause. Nil uninstalls.
func (t *Transport) SetTelemetry(rec *telemetry.Recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tel = rec
}

// faultCauses precomputes "faultinject: injected <kind> on <direction>"
// for every kind so firing a fault appends its event without allocating
// on the datagram path. Indexed [dirIdx][kind], dirIdx 0 = send, 1 = recv.
var faultCauses = func() (c [2][Stall + 1]string) {
	for k := Drop; k <= Stall; k++ {
		c[0][k] = "faultinject: injected " + k.String() + " on send"
		c[1][k] = "faultinject: injected " + k.String() + " on recv"
	}
	return
}()

const causePartitionDrop = "faultinject: partition drop"

// New wraps inner with the given fault plan. The clock schedules Delay
// faults; nil means the real clock. A zero seed selects a fixed default,
// so plans are reproducible unless explicitly varied.
func New(inner Inner, clock vclock.Clock, seed int64, rules ...Rule) *Transport {
	if clock == nil {
		clock = vclock.Real{}
	}
	if seed == 0 {
		seed = 1996
	}
	t := &Transport{
		inner:       inner,
		clock:       clock,
		rng:         rand.New(rand.NewSource(seed)),
		partitioned: make(map[string]bool),
	}
	for _, r := range rules {
		t.rules = append(t.rules, &ruleState{Rule: r})
	}
	inner.SetHandler(t.onRecv)
	return t
}

// SwapInner replaces the wrapped transport, modelling an endpoint
// restart or a NAT rebind that moves the local socket: datagrams sent
// after SwapInner leave through the new transport (and so carry its
// source address), and the receive path follows it. The old inner's
// handler is detached so datagrams still arriving on the abandoned
// path no longer reach this injector; its lifecycle (Close) stays with
// the caller. Stalled and delayed datagrams release through whichever
// inner is current when they fire.
func (t *Transport) SwapInner(inner Inner) {
	t.mu.Lock()
	old := t.inner
	t.inner = inner
	t.mu.Unlock()
	if old != nil {
		old.SetHandler(func(string, []byte) {})
	}
	inner.SetHandler(t.onRecv)
}

// currentInner reads the wrapped transport under the lock (SwapInner
// may replace it concurrently).
func (t *Transport) currentInner() Inner {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner
}

// SetPartitioned cuts (or heals) both directions to one peer.
func (t *Transport) SetPartitioned(peer string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned[peer] = down
}

// Stats returns a snapshot of the fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// RuleFired reports how many times rule i (plan order) claimed a datagram.
func (t *Transport) RuleFired(i int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.rules) {
		return 0
	}
	return t.rules[i].fired
}

// ReleaseStalled forwards every stalled datagram, in the order they were
// held, and reports how many it released. Released sends go to the inner
// transport; released receives go to the handler.
func (t *Transport) ReleaseStalled() int {
	t.mu.Lock()
	q := t.stalled
	t.stalled = nil
	h := t.handler
	inner := t.inner
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return 0
	}
	for _, s := range q {
		if s.send {
			_ = inner.Send(s.peer, s.data)
		} else if h != nil {
			h(s.peer, s.data)
		}
	}
	return len(q)
}

// StalledCount reports how many datagrams are currently held.
func (t *Transport) StalledCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stalled)
}

// decide evaluates the plan for one datagram under t.mu and returns the
// fault to apply, if any. All rng draws happen here, in arrival order.
func (t *Transport) decide(dir Direction, peer string, size int) action {
	if t.partitioned[peer] {
		t.stats.PartitionDropped++
		t.tel.Event(telemetry.EventFault, 0, causePartitionDrop)
		return action{kind: Drop, fired: true}
	}
	for _, r := range t.rules {
		d := r.Direction
		if d == 0 {
			d = Both
		}
		if d&dir == 0 || (r.Peer != "" && r.Peer != peer) {
			continue
		}
		r.seen++
		if r.Nth != 0 && r.seen != r.Nth {
			continue
		}
		if r.Every != 0 && r.seen%r.Every != 0 {
			continue
		}
		if r.Rate != 0 && t.rng.Float64() >= r.Rate {
			continue
		}
		if r.Count != 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		a := action{kind: r.Kind, fired: true, delay: r.Delay}
		switch r.Kind {
		case Corrupt:
			a.offset = clampOffset(r.Offset, size)
			a.bitMask = r.BitMask
			if a.bitMask == 0 {
				a.bitMask = 1 << t.rng.Intn(8)
			}
			t.stats.Corrupted++
		case Truncate:
			a.keep = r.TruncateTo
			if a.keep == 0 {
				a.keep = size / 2
			}
			if a.keep > size {
				a.keep = size
			}
			t.stats.Truncated++
		case Drop:
			t.stats.Dropped++
		case Duplicate:
			t.stats.Duplicated++
		case Delay:
			t.stats.Delayed++
		case Stall:
			t.stats.Stalled++
		}
		if t.tel != nil {
			di := 0
			if dir == Recv {
				di = 1
			}
			t.tel.Event(telemetry.EventFault, 0, faultCauses[di][r.Kind])
		}
		return a
	}
	return action{}
}

// clampOffset resolves a possibly-negative byte offset against size.
func clampOffset(off, size int) int {
	if off < 0 {
		off += size
	}
	if off < 0 {
		off = 0
	}
	if off >= size {
		off = size - 1
	}
	return off
}

// Send implements core.Transport: the datagram runs through the fault
// plan on its way to the inner transport.
func (t *Transport) Send(dst string, datagram []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.stats.Sent++
	a := t.decide(Send, dst, len(datagram))
	if a.kind == Stall && a.fired {
		t.stalled = append(t.stalled, stalledDatagram{
			send: true, peer: dst, data: append([]byte(nil), datagram...),
		})
		t.mu.Unlock()
		return nil
	}
	inner := t.inner
	t.mu.Unlock()

	if !a.fired {
		return inner.Send(dst, datagram)
	}
	switch a.kind {
	case Drop:
		return nil
	case Duplicate:
		if err := inner.Send(dst, datagram); err != nil {
			return err
		}
		return inner.Send(dst, datagram)
	case Delay:
		// The caller owns datagram once Send returns; hold a copy.
		cp := append([]byte(nil), datagram...)
		t.clock.AfterFunc(a.delay, func() {
			t.mu.Lock()
			cur := t.inner
			closed := t.closed
			t.mu.Unlock()
			if !closed {
				_ = cur.Send(dst, cp)
			}
		})
		return nil
	case Truncate:
		// A shorter prefix of the caller's buffer: no mutation, no copy.
		return inner.Send(dst, datagram[:a.keep])
	case Corrupt:
		if len(datagram) == 0 {
			return inner.Send(dst, datagram)
		}
		cp := append([]byte(nil), datagram...)
		cp[a.offset] ^= a.bitMask
		return inner.Send(dst, cp)
	}
	return inner.Send(dst, datagram)
}

// batchInner is the optional vectorized-send surface of an inner
// transport (structurally core.BatchTransport's extra method, declared
// locally for the same import-cycle reason as Inner).
type batchInner interface {
	SendBatch(dst string, datagrams [][]byte) (sent int, err error)
}

// SendBatch implements the engine's BatchTransport contract over the
// fault plan. Every datagram is evaluated individually, under one
// acquisition of the lock, in slice order — exactly the rule matching,
// sequence counting, and rng draw order a loop of Sends would have
// produced, so fault plans replay identically whether the engine batched
// a burst or not. The surviving datagrams (minus drops, stalls, and
// delays; plus duplicates) are forwarded in order, through the inner
// transport's own SendBatch when it has one. sent is the prefix-count of
// the contract: a datagram consumed by a fault counts as sent, and a
// non-nil error names the datagram at index sent.
func (t *Transport) SendBatch(dst string, datagrams [][]byte) (sent int, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, ErrClosed
	}
	// out collects the datagrams to forward; src maps each back to its
	// index in the caller's slice (for error attribution). Both preserve
	// slice order, so src is non-decreasing and sent stays a prefix count.
	out := make([][]byte, 0, len(datagrams))
	src := make([]int, 0, len(datagrams))
	type delayed struct {
		data  []byte
		delay time.Duration
	}
	var delays []delayed
	for i, d := range datagrams {
		t.stats.Sent++
		a := t.decide(Send, dst, len(d))
		if !a.fired {
			out = append(out, d)
			src = append(src, i)
			continue
		}
		switch a.kind {
		case Drop:
			// Consumed; the batch around it is untouched.
		case Duplicate:
			out = append(out, d, d)
			src = append(src, i, i)
		case Delay:
			// The caller owns d once SendBatch returns; hold a copy and
			// schedule it after the lock drops.
			delays = append(delays, delayed{data: append([]byte(nil), d...), delay: a.delay})
		case Truncate:
			// A shorter prefix of the caller's buffer: no mutation, and
			// the inner transport is done with it when SendBatch returns.
			out = append(out, d[:a.keep])
			src = append(src, i)
		case Corrupt:
			if len(d) == 0 {
				out = append(out, d)
			} else {
				cp := append([]byte(nil), d...)
				cp[a.offset] ^= a.bitMask
				out = append(out, cp)
			}
			src = append(src, i)
		case Stall:
			t.stalled = append(t.stalled, stalledDatagram{
				send: true, peer: dst, data: append([]byte(nil), d...),
			})
		default:
			out = append(out, d)
			src = append(src, i)
		}
	}
	inner := t.inner
	t.mu.Unlock()

	for _, dl := range delays {
		dl := dl
		t.clock.AfterFunc(dl.delay, func() {
			t.mu.Lock()
			cur := t.inner
			closed := t.closed
			t.mu.Unlock()
			if !closed {
				_ = cur.Send(dst, dl.data)
			}
		})
	}

	if len(out) == 0 {
		// Every datagram was consumed by a fault; per the contract that is
		// a fully-sent batch.
		return len(datagrams), nil
	}
	if bi, ok := inner.(batchInner); ok {
		n, err := bi.SendBatch(dst, out)
		if err != nil {
			if n < 0 {
				n = 0
			}
			if n >= len(out) {
				n = len(out) - 1
			}
			return src[n], err
		}
		return len(datagrams), nil
	}
	for i, d := range out {
		if err := inner.Send(dst, d); err != nil {
			return src[i], err
		}
	}
	return len(datagrams), nil
}

// SendBatchTo implements the engine's BatchToTransport contract
// (scattered-destination bursts, group fanout) over the fault plan. Each
// datagram takes one Send — the rule matching, sequence counting, and
// rng draw order are exactly a loop of Sends, so fault plans replay
// identically whether a fanout was batched or not.
func (t *Transport) SendBatchTo(dsts []string, datagrams [][]byte) (sent int, err error) {
	if len(dsts) != len(datagrams) {
		return 0, fmt.Errorf("faultinject: SendBatchTo: %d dsts for %d datagrams", len(dsts), len(datagrams))
	}
	for i, d := range datagrams {
		if err := t.Send(dsts[i], d); err != nil {
			return i, err
		}
	}
	return len(datagrams), nil
}

// onRecv runs incoming datagrams through the fault plan before the
// installed handler sees them.
func (t *Transport) onRecv(src string, datagram []byte) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.stats.Received++
	a := t.decide(Recv, src, len(datagram))
	if a.kind == Stall && a.fired {
		// The receive buffer is borrowed; stalling must copy it.
		t.stalled = append(t.stalled, stalledDatagram{
			send: false, peer: src, data: append([]byte(nil), datagram...),
		})
		t.mu.Unlock()
		return
	}
	h := t.handler
	t.mu.Unlock()
	if h == nil {
		return
	}

	if !a.fired {
		h(src, datagram)
		return
	}
	switch a.kind {
	case Drop:
		return
	case Duplicate:
		h(src, datagram)
		h(src, datagram)
	case Delay:
		cp := append([]byte(nil), datagram...)
		t.clock.AfterFunc(a.delay, func() {
			t.mu.Lock()
			hh := t.handler
			closed := t.closed
			t.mu.Unlock()
			if !closed && hh != nil {
				hh(src, cp)
			}
		})
	case Truncate:
		h(src, datagram[:a.keep])
	case Corrupt:
		if len(datagram) == 0 {
			h(src, datagram)
			return
		}
		// Never flip a bit in the transport's borrowed receive buffer.
		cp := append([]byte(nil), datagram...)
		cp[a.offset] ^= a.bitMask
		h(src, cp)
	default:
		h(src, datagram)
	}
}

// SetHandler implements core.Transport.
func (t *Transport) SetHandler(h func(src string, datagram []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// LocalAddr implements core.Transport.
func (t *Transport) LocalAddr() string { return t.currentInner().LocalAddr() }

// Close implements core.Transport: stalled datagrams are discarded and
// pending delayed deliveries become no-ops.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.stalled = nil
	inner := t.inner
	t.mu.Unlock()
	return inner.Close()
}
