//go:build linux && (amd64 || arm64)

package udp

// Vectorized I/O: raw sendmmsg/recvmmsg through the stdlib syscall
// package (no new module dependencies). The build tag pins the two
// 64-bit Linux ABIs whose syscall.Msghdr layout this file hardcodes
// (Iovlen/Controllen are uint64 there); every other GOOS/GOARCH builds
// the portable loop in mmsg_fallback.go instead.
//
// The batch send path chunks the burst into mmsgBatch headers per
// sendmmsg call; header/iovec/sockaddr scratch comes from a sync.Pool so
// the steady-state path allocates nothing. When the UDP_SEGMENT offload
// is on (gso_linux.go), equal-size runs become super-datagram headers
// inside the same sendmmsg call. The receive loop reads up to mmsgBatch
// datagrams per recvmmsg into a buffer ring allocated once per
// transport, splitting UDP_GRO-coalesced payloads back into datagrams;
// the ring slots are only reused after every handler of the previous
// batch has returned, which preserves the documented borrow-only buffer
// contract.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"

	"paccel/internal/telemetry"
)

// mmsgBatch is the most datagrams one sendmmsg/recvmmsg call carries.
// Bursts from the engine's flush paths are typically far smaller (a
// window of retransmits, a kicked backlog); 64 covers them all in one
// syscall without an oversized ring.
const mmsgBatch = 64

// recvBufSize is one receive-ring slot: any legal UDP payload fits (and
// with GRO, any coalesced payload — the kernel caps coalescing at the
// 64 KB UDP ceiling).
const recvBufSize = 65536

// mmsghdr mirrors the kernel's struct mmsghdr on the 64-bit ABIs the
// build tag selects (msghdr is 56 bytes there, so the struct pads to 64).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// sendState is the pooled per-call scratch for one sendmmsg batch: the
// header/iovec arrays, per-header segment counts and control buffers for
// the GSO tier, the coalesce scratch (lazily allocated — transports
// without the offload never pay for it), and the sockaddrs. The write
// step's parameters and results live here too, with writeStep bound once
// per state: a fresh closure per rc.Write call would put an allocation
// on the steady-state send path.
type sendState struct {
	hdrs [mmsgBatch]mmsghdr
	iovs [mmsgBatch]syscall.Iovec
	segs [mmsgBatch]int
	oobs [mmsgBatch][gsoOOB]byte
	buf  []byte

	// Per-slot sockaddrs: a scattered-destination burst (SendBatchTo)
	// points every header at a different member, so each slot needs its
	// own target; the single-destination path shares slot 0 across the
	// whole chunk.
	sa4s [mmsgBatch]syscall.RawSockaddrInet4
	sa6s [mmsgBatch]syscall.RawSockaddrInet6

	t        *Transport
	off, cnt int // header window the next write step transmits
	n        int // headers the kernel accepted
	errno    syscall.Errno
	writeFn  func(fd uintptr) bool
}

// writeStep issues one sendmmsg over the state's current header window.
// It runs under rc.Write, so returning false parks the goroutine in the
// poller until the socket is writable again.
func (st *sendState) writeStep(fd uintptr) bool {
	st.t.stats.txSyscalls.Add(1)
	r1, e := sendmmsgCall(fd, &st.hdrs[st.off], st.cnt, syscall.MSG_DONTWAIT)
	if e == syscall.EAGAIN || e == syscall.EINTR {
		return false // wait for writability, then retry
	}
	st.n, st.errno = r1, e
	return true
}

var sendPool = sync.Pool{New: func() any {
	st := new(sendState)
	st.writeFn = st.writeStep
	return st
}}

// putSendState drops the transport reference (a pooled state must not
// pin a closed transport) and returns the state to the pool.
func putSendState(st *sendState) {
	st.t = nil
	sendPool.Put(st)
}

// zeroByte anchors the iovec of an empty datagram (the kernel rejects a
// nil base only in some paths; never hand it one).
var zeroByte byte

// sendmmsgCall and recvmmsgCall issue the raw system calls. They are
// package vars so tests can interpose errnos — the transient-receive
// and GSO-refusal fallback paths need a regression test that does not
// depend on a cooperating kernel.
var sendmmsgCall = func(fd uintptr, hdrs *mmsghdr, vlen, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(vlen), uintptr(flags), 0, 0)
	return int(r1), e
}

var recvmmsgCall = func(fd uintptr, hdrs *mmsghdr, vlen, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(vlen), uintptr(flags), 0, 0)
	return int(r1), e
}

// initOS learns the socket's address family so the raw send path builds
// sockaddrs the kernel accepts (an AF_INET6 dual-stack socket needs
// v4-mapped targets), then probes the kernel offloads (gso_linux.go).
// Any failure leaves family 0 and the batch path falls back to the
// portable loop.
func (t *Transport) initOS() {
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return
	}
	t.rc = rc
	_ = rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err != nil {
			return
		}
		switch sa.(type) {
		case *syscall.SockaddrInet4:
			t.family = syscall.AF_INET
		case *syscall.SockaddrInet6:
			t.family = syscall.AF_INET6
		}
		t.probeOffload(int(fd))
	})
}

// sockaddrAt encodes ua into slot i's raw sockaddr for this socket's
// family. ok is false for shapes the raw path cannot encode (unknown
// family, zoned IPv6, a v6 target on a v4 socket); the caller then sends
// through the portable loop, which lets the stdlib handle them.
func (st *sendState) sockaddrAt(t *Transport, ua *net.UDPAddr, i int) (name *byte, namelen uint32, ok bool) {
	if ua.Zone != "" {
		return nil, 0, false
	}
	ip4 := ua.IP.To4()
	switch t.family {
	case syscall.AF_INET:
		if ip4 == nil {
			return nil, 0, false
		}
		st.sa4s[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&st.sa4s[i].Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		copy(st.sa4s[i].Addr[:], ip4)
		return (*byte)(unsafe.Pointer(&st.sa4s[i])), syscall.SizeofSockaddrInet4, true
	case syscall.AF_INET6:
		ip16 := ua.IP.To16() // maps v4 targets to ::ffff:a.b.c.d
		if ip16 == nil {
			return nil, 0, false
		}
		st.sa6s[i] = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		p := (*[2]byte)(unsafe.Pointer(&st.sa6s[i].Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		copy(st.sa6s[i].Addr[:], ip16)
		return (*byte)(unsafe.Pointer(&st.sa6s[i])), syscall.SizeofSockaddrInet6, true
	}
	return nil, 0, false
}

// sendBatchToWire drains a scattered-destination burst with sendmmsg,
// chunking at mmsgBatch headers per call, each header carrying its own
// sockaddr. No UDP_SEGMENT coalescing: a super-datagram has one
// destination, and a fanout's datagrams each have their own. The kernel
// may transmit a prefix of a chunk; the loop resumes at the first unsent
// datagram, so sent is always an exact prefix count. Datagrams whose
// resolved address the raw path cannot encode (zoned IPv6, a v6 target
// on a v4 socket) are sent through WriteToUDP at their position in the
// burst, preserving slice order.
func (t *Transport) sendBatchToWire(dsts []string, datagrams [][]byte) (int, error) {
	rc := t.rc
	if rc == nil {
		return t.sendBatchToLoop(dsts, datagrams)
	}
	st := sendPool.Get().(*sendState)
	defer putSendState(st)
	st.t = t

	sent := 0
	for sent < len(datagrams) {
		// Build one chunk of plain headers, one sockaddr per slot.
		k := 0
		var stopErr error
		loopFallback := false
		for k < mmsgBatch && sent+k < len(datagrams) {
			d := datagrams[sent+k]
			if len(d) > MaxDatagram {
				stopErr = oversizedErr(len(d))
				break
			}
			ua, err := t.resolve(dsts[sent+k])
			if err != nil {
				stopErr = err
				break
			}
			name, namelen, ok := st.sockaddrAt(t, ua, k)
			if !ok {
				loopFallback = true
				break
			}
			iov := &st.iovs[k]
			if len(d) > 0 {
				iov.Base = &d[0]
			} else {
				iov.Base = &zeroByte
			}
			iov.Len = uint64(len(d))
			hdr := &st.hdrs[k].hdr
			hdr.Name = name
			hdr.Namelen = namelen
			hdr.Iov = iov
			hdr.Iovlen = 1
			hdr.Control = nil
			hdr.Controllen = 0
			st.segs[k] = 1
			k++
		}
		// Transmit the chunk built so far.
		done := 0
		for done < k {
			st.off, st.cnt = done, k-done
			if werr := rc.Write(st.writeFn); werr != nil {
				return sent, werr
			}
			n, errno := st.n, st.errno
			if errno != 0 {
				return sent, fmt.Errorf("udp: sendmmsg: %w", errno)
			}
			if n <= 0 {
				return sent, errors.New("udp: sendmmsg made no progress")
			}
			sent += n
			done += n
		}
		if stopErr != nil {
			return sent, stopErr
		}
		if loopFallback {
			// The datagram at index sent has an address shape only the
			// stdlib can encode; send it alone, in order, and resume the
			// vectorized path after it.
			if _, err := t.sendBatchToLoop(dsts[sent:sent+1], datagrams[sent:sent+1]); err != nil {
				return sent, err
			}
			sent++
		}
	}
	return sent, nil
}

// oversizedErr builds the wrapped ErrDatagramTooLarge every send path
// reports.
func oversizedErr(n int) error {
	return fmt.Errorf("%w: %d > %d", ErrDatagramTooLarge, n, MaxDatagram)
}

// sendBatchWire drains the burst with sendmmsg, chunking at mmsgBatch
// headers per call; fill (gso_linux.go) coalesces equal-size runs into
// UDP_SEGMENT super-datagram headers when the offload is on, so one
// chunk can carry up to mmsgBatch×maxGSOSegments datagrams. The kernel
// may transmit a prefix of a chunk; the loop resumes at the first unsent
// datagram, so sent is always an exact prefix count and an error names
// the datagram at index sent. A refusal errno on a chunk that carried a
// super-datagram triggers the sticky GSO fallback and the chunk is
// rebuilt from plain headers — nothing from it had been transmitted, so
// the prefix contract holds.
func (t *Transport) sendBatchWire(ua *net.UDPAddr, datagrams [][]byte) (int, error) {
	rc := t.rc
	if rc == nil {
		return t.sendBatchLoop(ua, datagrams)
	}
	st := sendPool.Get().(*sendState)
	defer putSendState(st)
	st.t = t
	name, namelen, ok := st.sockaddrAt(t, ua, 0)
	if !ok {
		return t.sendBatchLoop(ua, datagrams)
	}

	sent := 0
	for sent < len(datagrams) {
		k, fillErr := st.fill(t, name, namelen, datagrams[sent:])
		if k == 0 {
			return sent, fillErr // head datagram oversized
		}
		refused := false
		done := 0 // headers transmitted so far in this chunk
		for done < k {
			st.off, st.cnt = done, k-done
			werr := rc.Write(st.writeFn)
			if werr != nil {
				return sent, werr
			}
			n, errno := st.n, st.errno
			if errno != 0 {
				if gsoRefused(errno) && st.hasGSO(done, k) {
					// The kernel (or path MTU) rejected the segmentation
					// cmsg. Disable the offload and rebuild this chunk's
					// remainder with plain headers.
					t.disableGSO()
					refused = true
					break
				}
				return sent, fmt.Errorf("udp: sendmmsg: %w", errno)
			}
			if n <= 0 {
				return sent, errors.New("udp: sendmmsg made no progress")
			}
			for i := done; i < done+n; i++ {
				sent += st.segs[i]
				if st.segs[i] > 1 {
					t.stats.gsoSends.Add(1)
					t.stats.gsoSegments.Add(uint64(st.segs[i]))
				}
			}
			done += n
		}
		if refused {
			continue // refill from datagrams[sent:] without the offload
		}
		if fillErr != nil {
			return sent, fillErr // oversized datagram at index sent
		}
	}
	return sent, nil
}

// closedRecvErrno reports whether a recvmmsg errno means the socket is
// gone (shut down under the loop) rather than a transient kernel
// condition. Everything else — ENOBUFS and ENOMEM under memory
// pressure, unexpected one-offs — is survivable: returning would leave
// the transport permanently deaf while Send still works.
func closedRecvErrno(e syscall.Errno) bool {
	switch e {
	case syscall.EBADF, syscall.EINVAL, syscall.ENOTSOCK, syscall.ENOTCONN:
		return true
	}
	return false
}

// recvCall is readLoop's recvmmsg callback and its results. The loop
// builds it, and the method value it hands to RawConn.Read, once: a
// closure built per wake-up captures its results by reference and moves
// them to the heap, two allocations on every wake-up.
type recvCall struct {
	t     *Transport
	hdrs  *[mmsgBatch]mmsghdr
	n     int
	errno syscall.Errno
}

func (r *recvCall) read(fd uintptr) bool {
	r.t.stats.rxSyscalls.Add(1)
	n, e := recvmmsgCall(fd, &r.hdrs[0], mmsgBatch, syscall.MSG_DONTWAIT)
	if e == syscall.EAGAIN || e == syscall.EINTR {
		return false // wait for readability
	}
	r.n, r.errno = n, e
	return true
}

// readLoop is the vectorized receive loop: one recvmmsg call drains up
// to mmsgBatch queued datagrams into the ring, then the handler runs
// once per datagram in arrival order, with UDP_GRO-coalesced payloads
// split back into their original datagrams first. Ring slots are reused
// only on the next recvmmsg, after every handler of this batch has
// returned.
func (t *Transport) readLoop() {
	defer close(t.done)
	if t.pinned {
		// ListenSharded's per-queue loops: one OS thread per queue, the
		// userspace analogue of a pinned NIC receive queue.
		runtime.LockOSThread()
	}
	rc := t.rc
	if rc == nil || debugGenericRead {
		t.readLoopGeneric()
		return
	}

	ring := make([]byte, mmsgBatch*recvBufSize)
	var (
		hdrs  [mmsgBatch]mmsghdr
		iovs  [mmsgBatch]syscall.Iovec
		names [mmsgBatch]syscall.RawSockaddrAny
	)
	var ctrls []byte
	if t.groOn {
		ctrls = make([]byte, mmsgBatch*groOOB)
	}
	for i := range hdrs {
		iovs[i].Base = &ring[i*recvBufSize]
		iovs[i].Len = recvBufSize
		hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&names[i]))
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
		if ctrls != nil {
			hdrs[i].hdr.Control = &ctrls[i*groOOB]
		}
	}

	var lastRaw syscall.RawSockaddrAny
	var lastSrc string
	call := &recvCall{t: t, hdrs: &hdrs}
	read := call.read // one method value for the loop's lifetime
	for {
		for i := range hdrs {
			hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
			hdrs[i].len = 0
			if ctrls != nil {
				hdrs[i].hdr.Controllen = groOOB
			}
		}
		if rerr := rc.Read(read); rerr != nil {
			return // closed (poller torn down)
		}
		n, errno := call.n, call.errno
		if errno != 0 {
			if closedRecvErrno(errno) {
				return
			}
			// Transient failure (ENOBUFS, ENOMEM, ...): count it, tell
			// telemetry, and keep listening — exiting here would leave
			// the transport deaf forever while sends still succeed.
			t.stats.recvErrors.Add(1)
			t.tel.Load().Event(telemetry.EventFault, 0, causeRecvError)
			runtime.Gosched()
			continue
		}
		if n <= 0 {
			return
		}
		t.stats.batchRecvs.Add(1)

		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		delivered := 0
		for i := 0; i < n; i++ {
			payload := ring[i*recvBufSize : i*recvBufSize+int(hdrs[i].len)]
			// Cache the stringified source: traffic is typically runs
			// of datagrams from the same peer, and building the string
			// allocates.
			if !rawAddrEqual(&names[i], &lastRaw) {
				lastRaw = names[i]
				lastSrc = rawAddrString(&names[i])
			}
			seg := 0
			if ctrls != nil && hdrs[i].hdr.Controllen > 0 {
				seg = groSegSize(ctrls[i*groOOB : i*groOOB+int(hdrs[i].hdr.Controllen)])
			}
			if seg > 0 && seg < len(payload) {
				// A kernel-coalesced payload: split it back into the
				// original wire datagrams (borrow-only subslices).
				src := lastSrc
				segs := splitSegments(payload, seg, func(d []byte) {
					if h != nil {
						h(src, d)
					}
				})
				t.stats.groRecvs.Add(1)
				t.stats.groSegments.Add(uint64(segs))
				delivered += segs
				continue
			}
			if h != nil {
				h(lastSrc, payload)
			}
			delivered++
		}
		t.stats.recvDatagrams.Add(uint64(delivered))
	}
}

// rawAddrEqual compares the family-meaningful prefix of two raw
// sockaddrs — for IPv6 that includes Scope_id, so link-local peers with
// the same address on different interfaces never conflate. Slots keep
// stale bytes from earlier peers past the written length, so a
// whole-struct compare would mis-report runs.
func rawAddrEqual(a, b *syscall.RawSockaddrAny) bool {
	if a.Addr.Family != b.Addr.Family {
		return false
	}
	var n uintptr
	switch a.Addr.Family {
	case syscall.AF_INET:
		n = syscall.SizeofSockaddrInet4
	case syscall.AF_INET6:
		n = syscall.SizeofSockaddrInet6
	default:
		return false
	}
	ab := (*[syscall.SizeofSockaddrAny]byte)(unsafe.Pointer(a))[:n]
	bb := (*[syscall.SizeofSockaddrAny]byte)(unsafe.Pointer(b))[:n]
	return bytes.Equal(ab, bb)
}

// rawAddrString renders a raw sockaddr as the host:port form the rest of
// the system keys peers by, matching what net.UDPAddr.String would have
// produced for the same datagram (v4-mapped v6 prints as plain v4).
func rawAddrString(sa *syscall.RawSockaddrAny) string {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		ua := net.UDPAddr{IP: net.IP(sa4.Addr[:]), Port: int(p[0])<<8 | int(p[1])}
		return ua.String()
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		ua := net.UDPAddr{IP: net.IP(sa6.Addr[:]), Port: int(p[0])<<8 | int(p[1])}
		if sa6.Scope_id != 0 {
			// Numeric zone: the rare link-local case; good enough for a
			// routing key, and it avoids an interface-table lookup here.
			ua.Zone = strconv.FormatUint(uint64(sa6.Scope_id), 10)
		}
		return ua.String()
	}
	return "?"
}
