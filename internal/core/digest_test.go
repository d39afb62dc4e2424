package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"paccel/internal/bits"
	"paccel/internal/filter"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/stack"
)

// countingDigest is the Internet checksum, counting what it digests.
// calls counts non-empty payloads only: the receiving side of these tests
// sends nothing but empty acks, so its calls are its deliveries.
type countingDigest struct {
	id           filter.DigestID
	bytes, calls atomic.Int64
}

func newCountingDigest(name string) *countingDigest {
	d := &countingDigest{}
	d.id = filter.RegisterDigest(name, func(p []byte) uint64 {
		d.bytes.Add(int64(len(p)))
		if len(p) > 0 {
			d.calls.Add(1)
		}
		return filter.InternetChecksum(p)
	})
	return d
}

func (d *countingDigest) reset() {
	d.bytes.Store(0)
	d.calls.Store(0)
}

// countingBuild is the default stack with d as the checksum's digest and
// the fragmentation threshold thr; thr 0 leaves the frag layer out.
func countingBuild(d *countingDigest, thr int) StackBuilder {
	return func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error) {
		ls, err := DefaultStack(spec, order)
		if err != nil {
			return nil, err
		}
		ls[0].(*layers.Chksum).Digest = d.id
		if thr == 0 {
			return append(ls[:1], ls[2:]...), nil
		}
		ls[1].(*layers.Frag).Threshold = thr
		return ls, nil
	}
}

// deliveryTap counts the datagrams the wrapped transport delivered.
type deliveryTap struct {
	Transport
	frames atomic.Int64
}

func (t *deliveryTap) SetHandler(h func(src string, datagram []byte)) {
	t.Transport.SetHandler(func(src string, datagram []byte) {
		t.frames.Add(1)
		h(src, datagram)
	})
}

// The send and delivery filters are the only code that computes the
// checksum, and each runs once per frame: every path digests a message's
// payload exactly once on each side — the fast path, the first
// (identified) frame's slow delivery, a message split into fragments, and
// a message over the frame limit on a stack that cannot split it.
func TestDigestOncePerFrame(t *testing.T) {
	da, db := newCountingDigest("count-a"), newCountingDigest("count-b")
	newPair := func(t *testing.T, netCfg netsim.Config, thr int, tap *deliveryTap) *rig {
		return newRig(t, netCfg, func(cfgA, cfgB *Config) {
			cfgA.Build, cfgB.Build = countingBuild(da, thr), countingBuild(db, thr)
			if tap != nil {
				tap.Transport = cfgB.Transport
				cfgB.Transport = tap
			}
		})
	}
	// sendOne sends n bytes from A and checks that B got them whole and
	// each side digested them once.
	sendOne := func(t *testing.T, r *rig, n int) {
		t.Helper()
		da.reset()
		db.reset()
		want := bytes.Repeat([]byte{byte(n)}, n)
		before := r.fromA.count()
		if err := r.a.Send(want); err != nil {
			t.Fatal(err)
		}
		r.settleNet(time.Second)
		if r.fromA.count() != before+1 || !bytes.Equal(r.fromA.get(before), want) {
			t.Fatalf("%d B: not delivered whole", n)
		}
		if got := da.bytes.Load(); got != int64(n) {
			t.Errorf("%d B: sender digested %d bytes, want %d", n, got, n)
		}
		if got := db.bytes.Load(); got != int64(n) {
			t.Errorf("%d B: receiver digested %d bytes, want %d", n, got, n)
		}
	}

	t.Run("first identified frame", func(t *testing.T) {
		r := newPair(t, netsim.Config{}, 1000, nil)
		sendOne(t, r, 8)
		if st := r.b.Stats(); st.SlowDelivers != 1 {
			t.Fatalf("slow deliveries = %d, want 1", st.SlowDelivers)
		}
	})
	t.Run("fast path", func(t *testing.T) {
		r := newPair(t, netsim.Config{}, 1000, nil)
		sendOne(t, r, 8) // the identified first frame
		sa, sb := r.a.Stats(), r.b.Stats()
		sendOne(t, r, 8)
		if r.a.Stats().FastSends != sa.FastSends+1 || r.b.Stats().FastDelivers != sb.FastDelivers+1 {
			t.Fatal("the message did not take the fast path")
		}
	})
	for _, n := range []int{1024, 4000} {
		t.Run(fmt.Sprintf("fragmented %d B", n), func(t *testing.T) {
			r := newPair(t, netsim.Config{}, 1000, nil)
			sendOne(t, r, 8)
			sendOne(t, r, n)
			if r.a.Stats().ControlMsgs == 0 {
				t.Fatal("no fragments sent")
			}
		})
	}
	t.Run("over the limit without frag", func(t *testing.T) {
		r := newPair(t, netsim.Config{}, 0, nil)
		sendOne(t, r, 8)
		sendOne(t, r, 9000)
	})

	// Under reordering the receiver buffers future frames and releases
	// them when the gap closes; every frame its transport delivered is
	// still digested exactly once, whichever path it took — except the
	// ones the router drops before any connection sees them (frames that
	// overtook the identified first one carry a cookie not yet learned).
	t.Run("reorder", func(t *testing.T) {
		tap := &deliveryTap{}
		r := newPair(t, netsim.Config{Latency: 200 * time.Microsecond, ReorderRate: 0.4, Seed: 31}, 1000, tap)
		da.reset()
		db.reset()
		var want [][]byte
		for i := 0; i < 100; i++ {
			p := []byte(fmt.Sprintf("msg-%06d", i))
			want = append(want, p)
			if err := r.a.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		r.settleNet(5 * time.Second)
		if r.fromA.count() != len(want) {
			t.Fatalf("delivered %d of %d", r.fromA.count(), len(want))
		}
		for i, p := range want {
			if !bytes.Equal(r.fromA.get(i), p) {
				t.Fatalf("message %d: got %q, want %q", i, r.fromA.get(i), p)
			}
		}
		if r.net.Stats().Reordered == 0 || r.b.Stats().SlowDelivers == 0 {
			t.Fatal("nothing was reordered")
		}
		s := r.epB.Snapshot()
		frames := tap.frames.Load()
		routed := frames - int64(s.UnknownCookie+s.UnknownIdent+s.Malformed)
		if calls := db.calls.Load(); calls != routed {
			t.Fatalf("receiver digested %d times for %d frames routed to its connection (%d delivered)",
				calls, routed, frames)
		}
	})
}
