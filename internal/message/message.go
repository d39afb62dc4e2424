// Package message provides the message buffers that flow through the
// protocol stack.
//
// A Msg is a contiguous byte buffer with headroom: headers are pushed in
// front of the payload without copying it (the x-kernel / gopacket
// SerializeBuffer discipline). The send path pushes the compact class
// headers and finally the preamble; the delivery path pops them off in the
// opposite order. Each Msg also carries the byte order its aligned header
// fields were written in, taken from the preamble on delivery.
package message

import (
	"fmt"
	"sync"

	"paccel/internal/bits"
)

// DefaultHeadroom is the headroom reserved by New for pushed headers. The
// paper's point is that compact headers are small — well under 40 bytes in
// the normal case — but first messages also carry ~76 bytes of connection
// identification, so we reserve room for both plus slack.
const DefaultHeadroom = 160

// Msg is a message travelling up or down a protocol stack.
//
// The buffer layout is:
//
//	buf[0:start]     free headroom
//	buf[start:data]  pushed headers (most recently pushed first)
//	buf[data:end]    payload
//
// Msg values are not safe for concurrent use.
type Msg struct {
	buf   []byte
	start int // first live byte
	data  int // first payload byte
	end   int // one past last payload byte

	// Order is the byte order of aligned header fields in this message.
	// On the send side it is the sender's native order; on the delivery
	// side it is decoded from the preamble.
	Order bits.ByteOrder

	// Synthetic marks a message created above the wire (a reassembled
	// fragment train): it has no header regions, so a releasing engine
	// hands it straight to the application.
	Synthetic bool

	pooled bool
}

var pool = sync.Pool{New: func() any { return new(Msg) }}

// New returns a message with the given payload and DefaultHeadroom bytes of
// header headroom. The payload is copied.
func New(payload []byte) *Msg {
	return NewWithHeadroom(payload, DefaultHeadroom)
}

// NewWithHeadroom returns a message with the given payload, copying it, and
// at least headroom bytes available for pushed headers.
func NewWithHeadroom(payload []byte, headroom int) *Msg {
	m := pool.Get().(*Msg)
	need := headroom + len(payload)
	if cap(m.buf) < need {
		m.buf = make([]byte, need)
	}
	m.buf = m.buf[:cap(m.buf)]
	m.start = headroom
	m.data = headroom
	m.end = headroom + len(payload)
	m.Order = bits.BigEndian
	m.Synthetic = false
	m.pooled = true
	copy(m.buf[m.data:m.end], payload)
	return m
}

// FromWire wraps a datagram received from the network. The headers are
// still in front; the caller pops them off. The datagram is copied so the
// caller may reuse its receive buffer.
func FromWire(datagram []byte) *Msg {
	m := pool.Get().(*Msg)
	if cap(m.buf) < len(datagram) {
		m.buf = make([]byte, len(datagram))
	}
	m.buf = m.buf[:cap(m.buf)]
	m.start = 0
	m.data = 0 // unknown until headers are popped
	m.end = len(datagram)
	m.Order = bits.BigEndian
	m.Synthetic = false
	m.pooled = true
	copy(m.buf, datagram)
	return m
}

// Free returns the message to the buffer pool. The message must not be used
// afterwards. Freeing a nil message is a no-op.
func (m *Msg) Free() {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false
	pool.Put(m)
}

// Push reserves n bytes immediately in front of the current front of the
// message, zeroes them, and returns the reserved region. The region remains
// valid until the next Push/Pop. It grows the headroom if necessary.
func (m *Msg) Push(n int) []byte {
	if n < 0 {
		panic("message: Push negative size")
	}
	if m.start < n {
		m.grow(n)
	}
	m.start -= n
	region := m.buf[m.start : m.start+n]
	clear(region)
	return region
}

// PushBytes pushes a copy of b in front of the message.
func (m *Msg) PushBytes(b []byte) {
	copy(m.Push(len(b)), b)
}

// Pop removes the first n bytes of the message and returns them. The
// returned slice is valid until the next Push. Pop returns an error if the
// message is shorter than n.
func (m *Msg) Pop(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("message: Pop negative size %d", n)
	}
	if m.Len() < n {
		return nil, fmt.Errorf("message: Pop %d bytes from %d-byte message", n, m.Len())
	}
	region := m.buf[m.start : m.start+n]
	m.start += n
	if m.data < m.start {
		m.data = m.start
	}
	return region, nil
}

// Peek returns the first n bytes without removing them.
func (m *Msg) Peek(n int) ([]byte, error) {
	if n < 0 || m.Len() < n {
		return nil, fmt.Errorf("message: Peek %d bytes from %d-byte message", n, m.Len())
	}
	return m.buf[m.start : m.start+n], nil
}

// Bytes returns the full wire image: pushed headers followed by payload.
func (m *Msg) Bytes() []byte { return m.buf[m.start:m.end] }

// Payload returns the payload region (everything that is not a pushed
// header). For messages built with New this is the application data; for
// FromWire messages it is whatever remains after the pops performed so far.
func (m *Msg) Payload() []byte { return m.buf[m.data:m.end] }

// MarkPayload declares that everything currently in front of the message is
// payload. FromWire uses data==start already; this is for re-framing after
// unpacking packed messages.
func (m *Msg) MarkPayload() { m.data = m.start }

// Len returns the total length of the message (headers + payload).
func (m *Msg) Len() int { return m.end - m.start }

// PayloadLen returns the length of the payload region.
func (m *Msg) PayloadLen() int { return m.end - m.data }

// Headroom returns the free space available for Push without reallocation.
func (m *Msg) Headroom() int { return m.start }

// Clone returns an independent deep copy of the message, preserving the
// headroom geometry. Used for retransmission buffers.
func (m *Msg) Clone() *Msg {
	c := pool.Get().(*Msg)
	if cap(c.buf) < len(m.buf) {
		c.buf = make([]byte, len(m.buf))
	}
	c.buf = c.buf[:cap(c.buf)]
	copy(c.buf, m.buf[:m.end])
	c.start = m.start
	c.data = m.data
	c.end = m.end
	c.Order = m.Order
	c.Synthetic = m.Synthetic
	c.pooled = true
	return c
}

// AppendPayload appends b to the payload. It is used by the packer to build
// packed messages.
func (m *Msg) AppendPayload(b []byte) {
	if cap(m.buf) < m.end+len(b) {
		nbuf := make([]byte, (m.end+len(b))*2)
		copy(nbuf, m.buf[:m.end])
		m.buf = nbuf
	}
	m.buf = m.buf[:cap(m.buf)]
	copy(m.buf[m.end:], b)
	m.end += len(b)
}

// grow enlarges the headroom so that at least n bytes can be pushed.
func (m *Msg) grow(n int) {
	extra := n - m.start
	if extra < 64 {
		extra = 64
	}
	nbuf := make([]byte, extra+len(m.buf))
	copy(nbuf[extra:], m.buf[:m.end])
	m.buf = nbuf
	m.start += extra
	m.data += extra
	m.end += extra
}
