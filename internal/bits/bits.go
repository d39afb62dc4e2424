// Package bits provides bit-level access to header byte strings.
//
// Headers produced by the header layout compiler are treated as MSB-first
// bit strings: bit 0 is the most significant bit of byte 0, bit 8 is the
// most significant bit of byte 1, and so on. Numeric fields of up to 64
// bits may start at any bit offset and span byte boundaries.
//
// Byte-aligned fields whose size is 8, 16, 32 or 64 bits additionally
// support both byte orders, selected by the message's preamble byte-order
// bit (see the core package). Sub-byte and unaligned fields are always
// MSB-first, independent of the byte-order bit; this mirrors the paper's
// convention that byte ordering is a property of multi-byte words.
package bits

import "encoding/binary"

// ByteOrder selects the interpretation of byte-aligned power-of-two fields.
type ByteOrder uint8

// Supported byte orders. The paper's preamble encodes exactly these two;
// "other orderings are not supported" (§2.2).
const (
	BigEndian ByteOrder = iota
	LittleEndian
)

// String returns the conventional name of the byte order.
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// aligned reports whether a field at bit offset off with the given size can
// use the fast byte-aligned access path.
func aligned(off, size int) bool {
	if off%8 != 0 {
		return false
	}
	switch size {
	case 8, 16, 32, 64:
		return true
	}
	return false
}

// ReadBits reads a size-bit unsigned integer starting at bit offset off.
// The bit string is MSB-first. size must be in [0, 64] and the field must
// lie within buf; otherwise ReadBits panics, since layout compilation
// guarantees in-bounds access and violations indicate corrupted state.
func ReadBits(buf []byte, off, size int) uint64 {
	if size < 0 || size > 64 {
		panic("bits: ReadBits size out of range")
	}
	if size == 0 {
		return 0
	}
	end := off + size
	if off < 0 || end > len(buf)*8 {
		panic("bits: ReadBits out of bounds")
	}
	var v uint64
	// Consume a leading partial byte, then whole bytes, then a trailing
	// partial byte.
	i := off / 8
	lead := off % 8
	remaining := size
	if lead != 0 {
		avail := 8 - lead
		take := avail
		if take > remaining {
			take = remaining
		}
		b := buf[i] >> (avail - take)
		b &= (1 << take) - 1
		v = uint64(b)
		remaining -= take
		i++
	}
	for remaining >= 8 {
		v = v<<8 | uint64(buf[i])
		remaining -= 8
		i++
	}
	if remaining > 0 {
		b := buf[i] >> (8 - remaining)
		v = v<<uint(remaining) | uint64(b)
	}
	return v
}

// WriteBits writes the low size bits of v as a size-bit unsigned integer at
// bit offset off, MSB-first. Bits of buf outside the field are preserved.
// Panics on out-of-bounds access, as for ReadBits.
func WriteBits(buf []byte, off, size int, v uint64) {
	if size < 0 || size > 64 {
		panic("bits: WriteBits size out of range")
	}
	if size == 0 {
		return
	}
	end := off + size
	if off < 0 || end > len(buf)*8 {
		panic("bits: WriteBits out of bounds")
	}
	if size < 64 {
		v &= (1 << size) - 1
	}
	// Write from the least significant end backwards.
	remaining := size
	bit := end
	for remaining > 0 {
		i := (bit - 1) / 8
		// Number of bits to place in this byte: up to the byte's
		// boundary.
		inByte := (bit-1)%8 + 1 // bit positions from byte MSB through bit-1
		take := inByte
		if take > remaining {
			take = remaining
		}
		shift := 7 - (bit-1)%8 // LSB shift of the chunk's last bit
		mask := byte((1<<take)-1) << shift
		buf[i] = buf[i]&^mask | byte(v<<shift)&mask
		v >>= take
		remaining -= take
		bit -= take
	}
}

// ReadUint reads a byte-aligned field of size 8, 16, 32 or 64 bits at bit
// offset off using the given byte order. For any other geometry it falls
// back to MSB-first ReadBits (ignoring order), so callers can use it
// unconditionally.
func ReadUint(buf []byte, off, size int, order ByteOrder) uint64 {
	if !aligned(off, size) {
		return ReadBits(buf, off, size)
	}
	i := off / 8
	switch size {
	case 8:
		return uint64(buf[i])
	case 16:
		if order == LittleEndian {
			return uint64(binary.LittleEndian.Uint16(buf[i:]))
		}
		return uint64(binary.BigEndian.Uint16(buf[i:]))
	case 32:
		if order == LittleEndian {
			return uint64(binary.LittleEndian.Uint32(buf[i:]))
		}
		return uint64(binary.BigEndian.Uint32(buf[i:]))
	default: // 64
		if order == LittleEndian {
			return binary.LittleEndian.Uint64(buf[i:])
		}
		return binary.BigEndian.Uint64(buf[i:])
	}
}

// WriteUint writes a byte-aligned field of size 8, 16, 32 or 64 bits at bit
// offset off using the given byte order, falling back to WriteBits for
// other geometries (as for ReadUint).
func WriteUint(buf []byte, off, size int, order ByteOrder, v uint64) {
	if !aligned(off, size) {
		WriteBits(buf, off, size, v)
		return
	}
	i := off / 8
	switch size {
	case 8:
		buf[i] = byte(v)
	case 16:
		if order == LittleEndian {
			binary.LittleEndian.PutUint16(buf[i:], uint16(v))
		} else {
			binary.BigEndian.PutUint16(buf[i:], uint16(v))
		}
	case 32:
		if order == LittleEndian {
			binary.LittleEndian.PutUint32(buf[i:], uint32(v))
		} else {
			binary.BigEndian.PutUint32(buf[i:], uint32(v))
		}
	default: // 64
		if order == LittleEndian {
			binary.LittleEndian.PutUint64(buf[i:], v)
		} else {
			binary.BigEndian.PutUint64(buf[i:], v)
		}
	}
}

// Mask returns a value with the low n bits set. n must be in [0, 64].
func Mask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}
