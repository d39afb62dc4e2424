package layers

import (
	"testing"

	"paccel/internal/filter"
	"paccel/internal/header"
)

func TestChksumPreSendFillsFields(t *testing.T) {
	h := newHarness(t, NewChksum())
	_, env := h.send([]byte("eight by"))
	hdr := env.Hdr[header.MsgSpec]
	c := h.st.Layers()[0].(*Chksum)
	if got := c.length.Read(hdr, env.Order); got != 8 {
		t.Fatalf("len = %d", got)
	}
	if got := c.sum.Read(hdr, env.Order); got != filter.InternetChecksum([]byte("eight by")) {
		t.Fatalf("ck = %#x", got)
	}
}

// The delivery filter is the only check of the fields: it accepts a
// frame the send path built and drops a corrupted one.
func TestChksumDeliveryVerdicts(t *testing.T) {
	h := newHarness(t, NewChksum())
	m, env := h.send([]byte("payload"))
	defer m.Free()
	if st := h.recvF.Run(env); st != filter.StatusOK {
		t.Fatalf("valid message: recv filter = %d", st)
	}
	env.Payload[0] ^= 0xFF
	if st := h.recvF.Run(env); st != filter.StatusDrop {
		t.Fatalf("corrupt message: recv filter = %d, want drop", st)
	}
}

func TestChksumFilterMatchesPhases(t *testing.T) {
	// The slow path (pre-phases, then the send filter) and the fast
	// path (the filter alone) must produce identical header bytes: the
	// pre-phases add nothing to the message-specific fields.
	h := newHarness(t, NewChksum())
	payload := []byte("identical wire bytes")

	_, slowEnv := h.send(payload)
	mFast, fastEnv := h.env(payload)
	defer mFast.Free()
	if st := h.sendF.Run(fastEnv); st != filter.StatusOK {
		t.Fatalf("send filter = %d", st)
	}
	slow := slowEnv.Hdr[header.MsgSpec]
	fast := fastEnv.Hdr[header.MsgSpec]
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("msg-spec headers differ: slow %x fast %x", slow, fast)
		}
	}
	// And the recv filter accepts what either path produced.
	if st := h.recvF.Run(fastEnv); st != filter.StatusOK {
		t.Fatalf("recv filter = %d", st)
	}
	fastEnv.Payload[0] ^= 1
	if st := h.recvF.Run(fastEnv); st != filter.StatusDrop {
		t.Fatalf("recv filter on corruption = %d", st)
	}
}

func TestChksumLengthMismatchDrops(t *testing.T) {
	h := newHarness(t, NewChksum())
	m, env := h.send([]byte("abcdef"))
	defer m.Free()
	c := h.st.Layers()[0].(*Chksum)
	c.length.Write(env.Hdr[header.MsgSpec], env.Order, 5)
	if st := h.recvF.Run(env); st != filter.StatusDrop {
		t.Fatalf("recv filter = %d, want drop", st)
	}
}

func TestChksumCustomDigest(t *testing.T) {
	c := NewChksum()
	c.Digest = filter.DigestXor8
	h := newHarness(t, c)
	m, env := h.send([]byte{0xF0, 0x0F})
	defer m.Free()
	if got := c.sum.Read(env.Hdr[header.MsgSpec], env.Order); got != 0xFF {
		t.Fatalf("xor digest = %#x", got)
	}
	if st := h.recvF.Run(env); st != filter.StatusOK {
		t.Fatalf("custom digest verification failed: recv filter = %d", st)
	}
}

// Digest ablation: the Internet checksum against CRC32C over typical
// payload sizes.
func BenchmarkDigestInternet1K(b *testing.B) {
	buf := make([]byte, 1024)
	fn, _ := filter.DigestByID(filter.DigestInternet)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		fn(buf)
	}
}

func BenchmarkDigestCRC32C1K(b *testing.B) {
	buf := make([]byte, 1024)
	fn, _ := filter.DigestByID(filter.DigestCRC32C)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		fn(buf)
	}
}
