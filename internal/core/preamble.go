// Package core implements the Protocol Accelerator (PA) itself: the
// per-connection engine of the paper that masks layering overhead with
// compact class headers, connection cookies, header prediction, packet
// filters in both critical paths, post-processing off the critical
// path, and message packing. The send and delivery paths follow the
// paper's Figure 3 pseudocode; the per-connection state follows Table 3.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"paccel/internal/bits"
)

// PreambleSize is the size of the preamble every PA message starts with:
// "an 8-byte header, called the Preamble" (§2.2).
const PreambleSize = 8

// CookieBits is the width of the connection cookie: "a 62-bit magic
// number ... chosen at random" (§2.2).
const CookieBits = 62

// CookieMask isolates the cookie from the two flag bits.
const CookieMask = (uint64(1) << CookieBits) - 1

// Preamble flag bits, stored in the two high bits of the 64-bit word.
const (
	flagConnIDPresent = uint64(1) << 63
	flagLittleEndian  = uint64(1) << 62
)

// Preamble is the fixed 8-byte header of every PA message (§2.2, Fig. 1):
// the connection-identification-present bit, the byte-order bit, and the
// 62-bit connection cookie.
type Preamble struct {
	// ConnIDPresent is set iff the Connection Identification follows
	// the preamble.
	ConnIDPresent bool
	// Order is the byte order of the message's aligned header fields:
	// set bit = little endian (§2.2).
	Order bits.ByteOrder
	// Cookie identifies the connection; only the low 62 bits are used.
	Cookie uint64
}

// Encode appends the 8-byte wire form to dst and returns the extended
// slice. The preamble itself is always big-endian: it is the bootstrap
// that carries the byte-order bit.
func (p Preamble) Encode(dst []byte) []byte {
	w := p.Cookie & CookieMask
	if p.ConnIDPresent {
		w |= flagConnIDPresent
	}
	if p.Order == bits.LittleEndian {
		w |= flagLittleEndian
	}
	var buf [PreambleSize]byte
	binary.BigEndian.PutUint64(buf[:], w)
	return append(dst, buf[:]...)
}

// EncodeTo writes the 8-byte wire form into dst, which must be at least
// PreambleSize long.
func (p Preamble) EncodeTo(dst []byte) {
	w := p.Cookie & CookieMask
	if p.ConnIDPresent {
		w |= flagConnIDPresent
	}
	if p.Order == bits.LittleEndian {
		w |= flagLittleEndian
	}
	binary.BigEndian.PutUint64(dst, w)
}

// DecodePreamble parses the preamble at the start of a datagram.
func DecodePreamble(b []byte) (Preamble, error) {
	if len(b) < PreambleSize {
		return Preamble{}, fmt.Errorf("core: datagram too short for preamble: %d bytes", len(b))
	}
	w := binary.BigEndian.Uint64(b)
	p := Preamble{
		ConnIDPresent: w&flagConnIDPresent != 0,
		Cookie:        w & CookieMask,
	}
	if w&flagLittleEndian != 0 {
		p.Order = bits.LittleEndian
	}
	return p, nil
}

// NewCookie draws a random, non-zero 62-bit connection cookie.
func NewCookie() (uint64, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("core: cookie: %w", err)
		}
		c := binary.BigEndian.Uint64(buf[:]) & CookieMask
		if c != 0 {
			return c, nil
		}
	}
}
