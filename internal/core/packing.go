package core

import (
	"encoding/binary"
	"fmt"
)

// Message packing (§3.4): when a closed window creates a backlog, the
// PA packs the waiting messages into one message — one pre/post cycle for
// many application messages — and the receiving PA unpacks them before
// delivery. Every PA message carries a Packing header (Fig. 1) describing
// how it is packed.
//
// Wire form (all varints are unsigned LEB128, via encoding/binary):
//
//	mode 0: single unpacked message; nothing follows.
//	mode 1: uniform packing — varint count, varint size. The paper's
//	        current PA "only packs together messages of the same size".
//	mode 2: general packing — varint count, then count varint sizes, the
//	        "more sophisticated header, such as used in the original
//	        Horus system".
const (
	packSingle  = 0
	packUniform = 1
	packGeneral = 2
)

// encodePacking appends the packing header for the given message sizes.
// len(sizes) == 1 encodes the single-message form regardless of the size
// value (the payload length is implicit).
func encodePacking(dst []byte, sizes []int) []byte {
	if len(sizes) <= 1 {
		return append(dst, packSingle)
	}
	uniform := true
	for _, s := range sizes[1:] {
		if s != sizes[0] {
			uniform = false
			break
		}
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v int) {
		n := binary.PutUvarint(buf[:], uint64(v))
		dst = append(dst, buf[:n]...)
	}
	if uniform {
		dst = append(dst, packUniform)
		put(len(sizes))
		put(sizes[0])
		return dst
	}
	dst = append(dst, packGeneral)
	put(len(sizes))
	for _, s := range sizes {
		put(s)
	}
	return dst
}

// maxPacked bounds the number of sub-messages a packing header may claim,
// protecting the decoder against hostile input.
const maxPacked = 1 << 16

// decodePacking parses a packing header at the start of b. It returns the
// sub-message sizes (nil for an unpacked message) and the header length.
// payloadLen is the number of bytes that follow the header; the sizes must
// sum to it exactly.
func decodePacking(b []byte) (sizes []int, hdrLen int, err error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("core: missing packing header")
	}
	mode := b[0]
	off := 1
	get := func() (int, error) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("core: truncated packing header")
		}
		off += n
		return int(v), nil
	}
	switch mode {
	case packSingle:
		return nil, 1, nil
	case packUniform:
		count, err := get()
		if err != nil {
			return nil, 0, err
		}
		size, err := get()
		if err != nil {
			return nil, 0, err
		}
		if count < 1 || count > maxPacked || size < 0 {
			return nil, 0, fmt.Errorf("core: invalid packing header (count %d, size %d)", count, size)
		}
		sizes = make([]int, count)
		for i := range sizes {
			sizes[i] = size
		}
		return sizes, off, nil
	case packGeneral:
		count, err := get()
		if err != nil {
			return nil, 0, err
		}
		if count < 1 || count > maxPacked {
			return nil, 0, fmt.Errorf("core: invalid packing count %d", count)
		}
		sizes = make([]int, count)
		for i := range sizes {
			if sizes[i], err = get(); err != nil {
				return nil, 0, err
			}
			if sizes[i] < 0 {
				return nil, 0, fmt.Errorf("core: negative packed size")
			}
		}
		return sizes, off, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown packing mode %d", mode)
	}
}

// checkPackedSizes verifies that the decoded sizes exactly cover a payload
// of the given length.
func checkPackedSizes(sizes []int, payloadLen int) error {
	if sizes == nil {
		return nil
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != payloadLen {
		return fmt.Errorf("core: packed sizes sum to %d, payload is %d", total, payloadLen)
	}
	return nil
}
