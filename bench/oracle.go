package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
)

// The correctness oracle. Every payload is
//
//	[0:4]  little-endian sequence number of the message on its connection
//	[4:8]  tag = mix(seed, connection index, sequence number)
//	[8:]   the seeded body block (1 KB workloads only)
//
// so a receiver that knows which connection it serves and which sequence
// number it expects can tell a lost, duplicated, reordered or corrupted
// message from a correct one by looking at the bytes alone.

// failCounts are the operations that did not do what was asked, by kind.
// Any non-zero total fails the run.
type failCounts struct {
	lost    atomic.Uint64 // sequence numbers skipped by a receiver
	dup     atomic.Uint64 // delivered again, or after a later message
	corrupt atomic.Uint64 // wrong length, tag, connection or body
	sendErr atomic.Uint64 // Send/Dial returned a non-backpressure error
	short   atomic.Uint64 // sent but never delivered by the end of the run
}

func (f *failCounts) total() uint64 {
	return f.lost.Load() + f.dup.Load() + f.corrupt.Load() + f.sendErr.Load() + f.short.Load()
}

// pattern generates and verifies payloads of one size for one seed.
type pattern struct {
	seed uint64
	size int
	body []byte // size bytes drawn from the seed; [0:8] is overwritten per message
}

func newPattern(seed int64, size int) *pattern {
	p := &pattern{seed: uint64(seed), size: size, body: make([]byte, size)}
	rand.New(rand.NewSource(seed)).Read(p.body)
	return p
}

// mix is the splitmix64 finalizer over (seed, conn, seq).
func mix(seed uint64, conn, seq uint32) uint32 {
	z := seed + 0x9E3779B97F4A7C15*(uint64(conn)<<32|uint64(seq)+1)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return uint32(z ^ z>>31)
}

// newBuf returns a send buffer holding the body; stamp finishes it per
// message, so the generator allocates nothing in its loop.
func (p *pattern) newBuf() []byte { return bytes.Clone(p.body) }

func (p *pattern) stamp(buf []byte, conn, seq uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], seq)
	binary.LittleEndian.PutUint32(buf[4:8], mix(p.seed, conn, seq))
}

// checker verifies one direction of one connection: exactly once, in
// order, byte-exact. It is called from whichever goroutine delivers, one
// at a time (the engine serializes a connection's callbacks).
type checker struct {
	p    *pattern
	f    *failCounts
	conn uint32
	next uint32
}

// check verifies one delivered payload and returns its sequence number and
// whether it was the expected message.
func (c *checker) check(payload []byte) (seq uint32, ok bool) {
	p := c.p
	if len(payload) != p.size {
		c.f.corrupt.Add(1)
		return 0, false
	}
	seq = binary.LittleEndian.Uint32(payload[0:4])
	if binary.LittleEndian.Uint32(payload[4:8]) != mix(p.seed, c.conn, seq) ||
		!bytes.Equal(payload[8:], p.body[8:]) {
		c.f.corrupt.Add(1)
		return seq, false
	}
	switch d := int32(seq - c.next); {
	case d == 0:
		c.next++
		return seq, true
	case d < 0:
		c.f.dup.Add(1)
		return seq, false
	default:
		c.f.lost.Add(uint64(d))
		c.next = seq + 1
		return seq, false
	}
}
