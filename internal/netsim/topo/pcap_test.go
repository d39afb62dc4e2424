package topo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"paccel/internal/vclock"
)

// goldenTrace runs the fixture schedule — a seeded 2-router topology
// with latency, jitter, and loss on the interior edge, tapped at that
// edge — and returns the capture bytes plus the tap's own frame count.
// Everything feeding the trace is virtual and seeded, so the bytes are
// reproducible down to the timestamp.
func goldenTrace(t *testing.T) ([]byte, uint64) {
	t.Helper()
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 1996, LinkConfig{
		Latency:  2 * time.Millisecond,
		Jitter:   500 * time.Microsecond,
		LossRate: 0.2,
	})
	var capA, capB capture
	a.SetHandler(capA.handler(clk))
	b.SetHandler(capB.handler(clk))

	var buf bytes.Buffer
	tap, err := n.Tap("r1", "r2", &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := a.Send(b.LocalAddr(), []byte(fmt.Sprintf("req-%02d", i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
		if i%3 == 0 {
			if err := b.Send(a.LocalAddr(), []byte(fmt.Sprintf("ack-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Millisecond)
	}
	clk.Advance(50 * time.Millisecond)
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tap.Frames()
}

func TestPCAPRoundTrip(t *testing.T) {
	raw, frames := goldenTrace(t)
	if frames == 0 {
		t.Fatal("tap captured nothing")
	}

	tf, err := ReadPCAP(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tf.LinkType != LinkTypeRaw {
		t.Fatalf("linktype = %d, want %d", tf.LinkType, LinkTypeRaw)
	}
	if tf.SnapLen != DefaultSnapLen {
		t.Fatalf("snaplen = %d, want %d", tf.SnapLen, DefaultSnapLen)
	}
	if uint64(len(tf.Frames)) != frames {
		t.Fatalf("reader saw %d frames, tap wrote %d", len(tf.Frames), frames)
	}

	prev := time.Time{}
	for i, f := range tf.Frames {
		if len(f.Data) > tf.SnapLen {
			t.Fatalf("frame %d: caplen %d exceeds snaplen", i, len(f.Data))
		}
		if f.OrigLen != len(f.Data) {
			t.Fatalf("frame %d: origLen %d != caplen %d under a full snaplen", i, f.OrigLen, len(f.Data))
		}
		if f.Time.Before(prev) {
			t.Fatalf("frame %d: timestamp %v before predecessor %v", i, f.Time, prev)
		}
		prev = f.Time
		src, dst, payload, err := f.UDP()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		fwd := src == "10.0.0.2:1" && dst == "10.0.1.2:1"
		rev := src == "10.0.1.2:1" && dst == "10.0.0.2:1"
		if !fwd && !rev {
			t.Fatalf("frame %d: unexpected flow %s -> %s", i, src, dst)
		}
		want := "req"
		if rev {
			want = "ack"
		}
		if len(payload) != 6 || string(payload[:3]) != want {
			t.Fatalf("frame %d: payload %q for flow %s -> %s", i, payload, src, dst)
		}
	}
	if !tf.Frames[0].Time.Equal(t0) {
		t.Fatalf("first frame at %v, schedule starts at %v", tf.Frames[0].Time, t0)
	}
}

// TestPCAPGoldenFixture pins the trace byte-for-byte against the
// committed fixture: the capture format, the encapsulation, and the
// seeded schedule's loss/jitter draws must all hold steady for old
// traces to stay readable. Regenerate deliberately with
// PACCEL_UPDATE_PCAP=1 after a format change.
func TestPCAPGoldenFixture(t *testing.T) {
	raw, _ := goldenTrace(t)
	golden := filepath.Join("testdata", "topo_2router.pcap")
	if os.Getenv("PACCEL_UPDATE_PCAP") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with PACCEL_UPDATE_PCAP=1)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("trace diverged from %s: got %d bytes, fixture has %d (regenerate with PACCEL_UPDATE_PCAP=1 if the change is intentional)",
			golden, len(raw), len(want))
	}
}

func TestPCAPSnapLenTruncates(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, a, b := twoRouter(clk, 0, LinkConfig{})
	var buf bytes.Buffer
	const snap = 64
	tap, err := n.Tap("r1", "r2", &buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 600)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(b.LocalAddr(), big); err != nil {
		t.Fatal(err)
	}
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}

	tf, err := ReadPCAP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Frames) != 1 {
		t.Fatalf("frames = %d", len(tf.Frames))
	}
	f := tf.Frames[0]
	if len(f.Data) != snap {
		t.Fatalf("caplen = %d, want %d", len(f.Data), snap)
	}
	if f.OrigLen != len(big)+ipHeaderLen+udpHeaderLen {
		t.Fatalf("origLen = %d, want %d", f.OrigLen, len(big)+ipHeaderLen+udpHeaderLen)
	}
	_, _, payload, err := f.UDP()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != snap-ipHeaderLen-udpHeaderLen {
		t.Fatalf("snapped payload = %d bytes", len(payload))
	}
	if !bytes.Equal(payload, big[:len(payload)]) {
		t.Fatal("snapped payload is not a prefix of the datagram")
	}
}

func TestPCAPRejectsGarbage(t *testing.T) {
	if _, err := ReadPCAP(bytes.NewReader(make([]byte, 64))); err != ErrNotPCAP {
		t.Fatalf("err = %v, want ErrNotPCAP", err)
	}
}

func TestTapUnknownEdge(t *testing.T) {
	clk := vclock.NewManual(t0)
	n, _, _ := twoRouter(clk, 0, LinkConfig{})
	if _, err := n.Tap("r1", "nope", &bytes.Buffer{}, 0); err == nil {
		t.Fatal("tap on a nonexistent edge succeeded")
	}
}

// TestAddrToIPv4Fallback pins how the capture renders addresses that are
// not "ip:port" (a topology accepts any host name): a non-IP host hashes
// to a stable 10.x.y.z, a non-numeric port to a stable ephemeral port,
// and real IPs and ports pass through.
func TestAddrToIPv4Fallback(t *testing.T) {
	for _, tc := range []struct {
		addr Addr
		ip   [4]byte
		port uint16
	}{
		{"10.0.0.2:80", [4]byte{10, 0, 0, 2}, 80},
		{"10.0.0.2:http", [4]byte{10, 0, 0, 2}, 51365},
		{"client:a", [4]byte{10, 146, 156, 30}, 59692},
		{"client:b", [4]byte{10, 146, 156, 30}, 60901},
		{"server:7", [4]byte{10, 172, 61, 210}, 7},
		{"hostonly", [4]byte{10, 234, 138, 17}, 0},
	} {
		ip, port := addrToIPv4(tc.addr)
		if ip != tc.ip || port != tc.port {
			t.Errorf("addrToIPv4(%q) = %v:%d, want %v:%d", tc.addr, ip, port, tc.ip, tc.port)
		}
	}
}
