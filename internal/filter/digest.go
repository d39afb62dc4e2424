package filter

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// DigestFunc computes a message digest over the payload, pushed onto the
// filter stack by the Digest op. The paper's DIGEST takes a "function ptr";
// we use a registry of named functions so programs remain serializable.
type DigestFunc func(payload []byte) uint64

// DigestID identifies a registered digest function. It is 32 bits wide so
// that Instr packs it beside the op code.
type DigestID int32

var digests struct {
	sync.RWMutex
	byName map[string]DigestID
	funcs  []DigestFunc
	names  []string
}

// RegisterDigest registers fn under name and returns its id. Registering a
// name twice replaces the function (tests use this); the id is stable.
// Builder.Build binds the function registered at build time, so a
// replacement affects only programs built afterwards.
func RegisterDigest(name string, fn DigestFunc) DigestID {
	digests.Lock()
	defer digests.Unlock()
	if digests.byName == nil {
		digests.byName = make(map[string]DigestID)
	}
	if id, ok := digests.byName[name]; ok {
		digests.funcs[id] = fn
		return id
	}
	id := DigestID(len(digests.funcs))
	digests.byName[name] = id
	digests.funcs = append(digests.funcs, fn)
	digests.names = append(digests.names, name)
	return id
}

// LookupDigest returns the id registered for name.
func LookupDigest(name string) (DigestID, bool) {
	digests.RLock()
	defer digests.RUnlock()
	id, ok := digests.byName[name]
	return id, ok
}

// DigestName returns the name a digest id was registered under.
func DigestName(id DigestID) string {
	digests.RLock()
	defer digests.RUnlock()
	if id < 0 || int(id) >= len(digests.names) {
		return fmt.Sprintf("digest(%d)", int(id))
	}
	return digests.names[id]
}

// DigestByID returns the registered digest function for id.
func DigestByID(id DigestID) (DigestFunc, bool) {
	digests.RLock()
	defer digests.RUnlock()
	if id < 0 || int(id) >= len(digests.funcs) {
		return nil, false
	}
	return digests.funcs[id], true
}

// InternetChecksum computes the 16-bit one's-complement Internet checksum
// (RFC 1071) of b. It is the digest the chksum layer installs in both
// packet filters.
func InternetChecksum(b []byte) uint64 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return uint64(^uint16(sum))
}

// Well-known digest ids, registered at package init.
var (
	// DigestInternet is the RFC 1071 Internet checksum.
	DigestInternet DigestID
	// DigestCRC32C is the Castagnoli CRC-32.
	DigestCRC32C DigestID
	// DigestXor8 is a trivial one-byte XOR, useful in tests.
	DigestXor8 DigestID
)

func init() {
	DigestInternet = RegisterDigest("inet16", InternetChecksum)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	DigestCRC32C = RegisterDigest("crc32c", func(b []byte) uint64 {
		return uint64(crc32.Checksum(b, castagnoli))
	})
	DigestXor8 = RegisterDigest("xor8", func(b []byte) uint64 {
		var x byte
		for _, c := range b {
			x ^= c
		}
		return uint64(x)
	})
}
