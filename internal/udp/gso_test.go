//go:build linux && (amd64 || arm64)

package udp

// Tests for the kernel-offload tier (gso_linux.go): probe reporting,
// UDP_SEGMENT send coalescing, UDP_GRO receive splitting, the sticky
// fallback, and the receive loop's transient-errno recovery. Tests that
// need a specific errno interpose the sendmmsgCall/recvmmsgCall hooks
// instead of depending on a cooperating kernel; tests that need the real
// offload skip with an explicit notice where the kernel lacks it.

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// requireGSO skips (loudly) on kernels without UDP_SEGMENT.
func requireGSO(t *testing.T, tr *Transport) {
	t.Helper()
	if gso, _ := tr.Offload(); !gso {
		t.Skip("SKIP: kernel lacks UDP_SEGMENT (need 4.18+); offload send path not exercised")
	}
}

func TestOffloadProbeReport(t *testing.T) {
	a, b := pair(t)
	gso, gro := a.Offload()
	t.Logf("offload probe: gso=%v gro=%v", gso, gro)
	if gso2, gro2 := b.Offload(); gso2 != gso || gro2 != gro {
		t.Fatalf("probe verdicts differ between sockets: %v/%v vs %v/%v", gso, gro, gso2, gro2)
	}
	// Disabled options must win over the kernel.
	c, err := ListenWithOptions("127.0.0.1:0", Options{DisableGSO: true, DisableGRO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if gso, gro := c.Offload(); gso || gro {
		t.Fatalf("offloads on despite DisableGSO/DisableGRO: %v/%v", gso, gro)
	}
}

func TestGSOLoopbackEqualSizeBurst(t *testing.T) {
	a, b := pair(t)
	requireGSO(t, a)
	var got collector
	got.install(b)
	const n, size = 64, 512
	ds := burst(n, size)
	sent, err := a.SendBatch(b.LocalAddr(), ds)
	if err != nil || sent != n {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got.waitN(t, n)
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, d := range got.data {
		if !bytes.Equal(d, ds[i]) {
			t.Fatalf("datagram %d: got tag %d/%d len %d", i, d[0], d[1], len(d))
		}
	}
	st := a.Stats()
	if st.GsoSends == 0 || st.GsoSegments != n {
		t.Fatalf("GSO not engaged: %+v", st)
	}
	if st.TxSyscalls != 1 {
		t.Fatalf("equal-size 64-burst should be one syscall, got %d", st.TxSyscalls)
	}
}

func TestGSOMixedSizesPrefixOrder(t *testing.T) {
	a, b := pair(t)
	requireGSO(t, a)
	var got collector
	got.install(b)
	// Runs of equal sizes with breaks: [8×300][1×100][8×300][5×40]
	var ds [][]byte
	sizes := []int{300, 300, 300, 300, 300, 300, 300, 300, 100, 300, 300, 300, 300, 300, 300, 300, 300, 40, 40, 40, 40, 40}
	for i, s := range sizes {
		d := make([]byte, s)
		d[0] = byte(i)
		ds = append(ds, d)
	}
	sent, err := a.SendBatch(b.LocalAddr(), ds)
	if err != nil || sent != len(ds) {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	got.waitN(t, len(ds))
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, d := range got.data {
		if len(d) != sizes[i] || d[0] != byte(i) {
			t.Fatalf("datagram %d: len=%d tag=%d, want len=%d tag=%d", i, len(d), d[0], sizes[i], i)
		}
	}
}

func TestGSOOversizedMidBatch(t *testing.T) {
	a, b := pair(t)
	ds := burst(10, 256)
	ds[6] = make([]byte, MaxDatagram+1)
	sent, err := a.SendBatch(b.LocalAddr(), ds)
	if sent != 6 {
		t.Fatalf("sent = %d, want 6 (prefix before the oversized datagram)", sent)
	}
	if !errors.Is(err, ErrDatagramTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestGSOFallbackOnRefusal(t *testing.T) {
	a, b := pair(t)
	requireGSO(t, a)
	var got collector
	got.install(b)

	real := sendmmsgCall
	defer func() { sendmmsgCall = real }()
	var refused int
	sendmmsgCall = func(fd uintptr, hdrs *mmsghdr, vlen, flags int) (int, syscall.Errno) {
		if hdrs.hdr.Controllen > 0 {
			// Refuse any chunk whose first header carries the UDP_SEGMENT
			// cmsg, as a path with a hostile MTU would.
			refused++
			return 0, syscall.EIO
		}
		return real(fd, hdrs, vlen, flags)
	}

	const n = 32
	ds := burst(n, 512)
	sent, err := a.SendBatch(b.LocalAddr(), ds)
	if err != nil || sent != n {
		t.Fatalf("SendBatch after refusal = %d, %v", sent, err)
	}
	if refused == 0 {
		t.Fatal("hook never saw a GSO chunk; offload did not engage")
	}
	if gso, _ := a.Offload(); gso {
		t.Fatal("GSO still on after kernel refusal; fallback is not sticky")
	}
	st := a.Stats()
	if st.GsoFallbacks != 1 {
		t.Fatalf("GsoFallbacks = %d, want 1", st.GsoFallbacks)
	}
	got.waitN(t, n)
	got.mu.Lock()
	defer got.mu.Unlock()
	for i, d := range got.data {
		if d[0] != byte(i) {
			t.Fatalf("datagram %d has tag %d; fallback lost ordering", i, d[0])
		}
	}

	// Later batches go straight down the plain tier.
	sent, err = a.SendBatch(b.LocalAddr(), burst(8, 128))
	if err != nil || sent != 8 {
		t.Fatalf("post-fallback SendBatch = %d, %v", sent, err)
	}
}

// TestRecvTransientErrno is the regression test for the receive-loop
// hardening: before the fix, any non-EAGAIN/EINTR recvmmsg errno made
// readLoop return, leaving the transport permanently deaf while Send
// kept working. Now transient errnos (ENOBUFS, ENOMEM) are counted and
// retried; only closed-socket errnos exit the loop.
func TestRecvTransientErrno(t *testing.T) {
	real := recvmmsgCall
	// Registered before pair(t): cleanups run LIFO, so the transports are
	// closed (Close waits for the read loops to exit) before the hook is
	// restored — restoring under a live loop is a data race.
	t.Cleanup(func() { recvmmsgCall = real })
	var mu sync.Mutex
	injected := 0
	recvmmsgCall = func(fd uintptr, hdrs *mmsghdr, vlen, flags int) (int, syscall.Errno) {
		mu.Lock()
		if injected < 3 {
			injected++
			mu.Unlock()
			return 0, syscall.ENOBUFS
		}
		mu.Unlock()
		return real(fd, hdrs, vlen, flags)
	}

	a, b := pair(t)
	var got collector
	got.install(b)
	if err := a.Send(b.LocalAddr(), []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	got.waitN(t, 1)
	got.mu.Lock()
	d := got.data[0]
	got.mu.Unlock()
	if !bytes.Equal(d, []byte("still alive")) {
		t.Fatalf("got %q", d)
	}
	if b.Stats().RecvErrors == 0 && a.Stats().RecvErrors == 0 {
		t.Fatal("transient errno not counted in RecvErrors")
	}
}

func TestGsoRun(t *testing.T) {
	mk := func(sizes ...int) [][]byte {
		ds := make([][]byte, len(sizes))
		for i, s := range sizes {
			ds[i] = make([]byte, s)
		}
		return ds
	}
	cases := []struct {
		sizes    []int
		run, tot int
	}{
		{[]int{100, 100, 100}, 3, 300},
		{[]int{100, 100, 40}, 3, 240}, // short tail closes the run
		{[]int{100, 40, 100}, 2, 140}, // run ends at the short datagram
		{[]int{100, 200}, 1, 100},     // larger datagram breaks the run
		{[]int{100, 0, 100}, 1, 100},  // empty datagram breaks the run
		{[]int{0, 100}, 0, 0},         // empty head: no run at all
	}
	for _, c := range cases {
		run, tot := gsoRun(mk(c.sizes...))
		if run != c.run || tot != c.tot {
			t.Errorf("gsoRun(%v) = %d,%d want %d,%d", c.sizes, run, tot, c.run, c.tot)
		}
	}
	// Segment cap.
	big := make([]int, 100)
	for i := range big {
		big[i] = 10
	}
	if run, _ := gsoRun(mk(big...)); run != maxGSOSegments {
		t.Errorf("run = %d, want cap %d", run, maxGSOSegments)
	}
}

func TestGroSegSizeWalk(t *testing.T) {
	// A synthetic control buffer: one unrelated cmsg, then the UDP_GRO
	// one carrying 1400.
	buf := make([]byte, 64)
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
	h.Level = syscall.SOL_SOCKET
	h.Type = 1
	h.SetLen(syscall.CmsgLen(4))
	off := (syscall.CmsgLen(4) + 7) &^ 7
	h2 := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[off]))
	h2.Level = solUDP
	h2.Type = udpGRO
	h2.SetLen(syscall.CmsgLen(4))
	*(*int32)(unsafe.Pointer(&buf[off+cmsgDataOff])) = 1400
	if got := groSegSize(buf); got != 1400 {
		t.Fatalf("groSegSize = %d, want 1400", got)
	}
	if got := groSegSize(buf[:8]); got != 0 {
		t.Fatalf("truncated buffer: groSegSize = %d, want 0", got)
	}
}

// TestRawAddrEqualScopeID pins the vectorized loop's source comparison:
// identical link-local addresses on different interfaces (Scope_id) are
// different peers.
func TestRawAddrEqualScopeID(t *testing.T) {
	mk := func(scope uint32) *syscall.RawSockaddrAny {
		raw := new(syscall.RawSockaddrAny)
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(raw))
		sa6.Family = syscall.AF_INET6
		sa6.Addr = [16]byte{0xfe, 0x80, 15: 1}
		sa6.Port = 0x1234
		sa6.Scope_id = scope
		return raw
	}
	if !rawAddrEqual(mk(2), mk(2)) {
		t.Fatal("identical zoned peers compare unequal")
	}
	if rawAddrEqual(mk(2), mk(3)) {
		t.Fatal("peers differing only in Scope_id compare equal (zone conflation)")
	}
	if rawAddrString(mk(2)) == rawAddrString(mk(3)) {
		t.Fatal("rawAddrString conflates zones")
	}
}

func TestSendBatchHookSeesComposedChunks(t *testing.T) {
	// Verify syscall composition: with GSO on, a 256-datagram equal-size
	// burst goes down in one sendmmsg of 4 super-datagram headers.
	a, b := pair(t)
	requireGSO(t, a)
	var calls, hdrsTotal int
	real := sendmmsgCall
	defer func() { sendmmsgCall = real }()
	sendmmsgCall = func(fd uintptr, hdrs *mmsghdr, vlen, flags int) (int, syscall.Errno) {
		calls++
		hdrsTotal += vlen
		return real(fd, hdrs, vlen, flags)
	}
	ds := burst(256, 512)
	sent, err := a.SendBatch(b.LocalAddr(), ds)
	if err != nil || sent != 256 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	if calls != 1 || hdrsTotal != 4 {
		t.Fatalf("256×512B burst: %d sendmmsg calls with %d headers, want 1 call / 4 super-datagrams", calls, hdrsTotal)
	}
}

// TestReadLoopWakeupAllocFree holds the vectorized receive loop to zero
// allocations per wake-up: one datagram at a time over loopback, each
// waited for before the next is sent, so every round is one recvmmsg
// wake-up. The count is the whole process's heap allocations, the
// steady-state batch send included (which allocates nothing, see below).
func TestReadLoopWakeupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a, b := pair(t)
	var got atomic.Int64
	b.SetHandler(func(string, []byte) { got.Add(1) })
	ds := burst(1, 64)
	dst := b.LocalAddr()
	round := func() {
		want := got.Load() + 1
		if _, err := a.SendBatch(dst, ds); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < want {
			if time.Now().After(deadline) {
				t.Fatal("datagram not delivered")
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 32; i++ { // warm-up: source string cache, scratch
		round()
	}
	const rounds = 200
	// No collection during the count: one would empty the send path's
	// scratch pool, and its refill is not the receive loop's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	wakeups := b.Stats().BatchRecvs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := b.Stats().BatchRecvs - wakeups; n < rounds {
		t.Fatalf("%d receive wake-ups for %d rounds", n, rounds)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations over %d receive wake-ups, want 0", n, rounds)
	}
}

func TestSendBatchSteadyStateAllocFree(t *testing.T) {
	// The batch send path must not allocate once warm: the raw conn is
	// cached at Listen, the header scratch is pooled, and the write step
	// is a pre-bound method value rather than a per-call closure. Holds
	// with and without the GSO tier (fill copies into pooled scratch).
	a, b := pair(t)
	ds := burst(64, 512)
	dst := b.LocalAddr()
	for i := 0; i < 32; i++ {
		if _, err := a.SendBatch(dst, ds); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.SendBatch(dst, ds); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SendBatch allocates %.1f/op, want 0", allocs)
	}
}
