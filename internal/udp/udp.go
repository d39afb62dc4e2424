// Package udp adapts real UDP sockets to the same unreliable datagram
// contract as package netsim, so the Protocol Accelerator can run between
// OS processes. UDP is the closest commodity stand-in for the
// paper's U-Net interface: message-oriented, unreliable, unordered.
//
// On Linux (amd64/arm64) the transport is vectorized: SendBatch drains a
// burst of datagrams with one sendmmsg system call, and the receive loop
// reads with recvmmsg into a pooled buffer ring, so the per-datagram
// syscall cost is amortized over the bursts the engine's flush paths
// produce. Every other platform keeps the portable per-datagram loop
// behind the same interface (see DESIGN.md §11 for the build-tag matrix).
//
// On kernels that support it, a further offload tier rides on top
// (DESIGN.md §13): equal-size runs inside a SendBatch burst are coalesced
// into UDP_SEGMENT super-datagrams the kernel segments (one header
// traversal for the whole run), the receive loop enables UDP_GRO and
// splits coalesced payloads back into datagrams, and ListenSharded opens
// N SO_REUSEPORT sockets on one port with independent pinned read loops.
// Both offloads are probed at Listen and degrade to the vectorized (then
// portable) tier when the kernel or path refuses.
package udp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"

	"paccel/internal/telemetry"
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("udp: transport closed")

// ErrDatagramTooLarge is returned (wrapped, with the sizes) by Send for
// datagrams over MaxDatagram.
var ErrDatagramTooLarge = errors.New("udp: datagram too large")

// MaxDatagram is the largest datagram Send accepts: the real UDP payload
// ceiling, 65535 minus the 8-byte UDP header and 20-byte IPv4 header.
// The protocol stack's fragmentation layer must split anything larger.
const MaxDatagram = 65507

// defaultPeerCacheLimit bounds the resolved-peer cache: under peer churn
// (a million distinct short-lived sources) an unbounded cache is a slow
// OOM. peerCacheLimit is a var so tests can shrink it.
const defaultPeerCacheLimit = 4096

var peerCacheLimit = defaultPeerCacheLimit

// resolveUDPAddr is swappable in tests to observe and stall resolution.
var resolveUDPAddr = net.ResolveUDPAddr

// debugGenericRead forces the portable per-datagram receive loop on the
// vectorized platforms; tests use it to drive both loops on one
// platform (with the offloads disabled — the generic loop cannot split
// GRO payloads). Set before Listen. No-op on the fallback build, which
// only has the generic loop.
var debugGenericRead = false

// Options tunes Listen beyond its defaults. The zero value enables every
// offload the kernel supports.
type Options struct {
	// DisableGSO skips the UDP_SEGMENT probe, pinning the transport to
	// plain sendmmsg batching (the benchmark control arm).
	DisableGSO bool
	// DisableGRO skips enabling UDP_GRO on the socket, so the kernel
	// never delivers coalesced payloads.
	DisableGRO bool
}

// Transport is an unreliable datagram endpoint over a UDP socket. Its
// Send/SetHandler/LocalAddr/Close surface mirrors netsim.Endpoint, keyed
// by string addresses in host:port form. It additionally implements the
// engine's batched-send contract (core.BatchTransport) via SendBatch.
type Transport struct {
	conn *net.UDPConn
	opts Options

	// rc is the conn's raw-access handle, fetched once at Listen:
	// net.UDPConn.SyscallConn allocates a fresh one per call, and the
	// zero-alloc batch send path runs per engine flush.
	rc syscall.RawConn

	// family is the socket's address family (AF_INET/AF_INET6), learned
	// once at Listen on the vectorized platforms so sendmmsg builds the
	// right raw sockaddr (a dual-stack socket needs v4-mapped targets).
	// Zero means unknown; the batch path then falls back to the loop.
	family uint16

	// Kernel-offload state (DESIGN.md §13), probed at Listen. gsoOn is
	// atomic because a kernel or path-MTU refusal mid-send clears it
	// (sticky fallback) while other sends are in flight; gsoProbed keeps
	// the original probe verdict. groOn is written before the read loop
	// starts and never again.
	gsoProbed bool
	groOn     bool
	gsoOn     atomic.Bool

	// pinned makes the receive goroutine lock its OS thread; set for
	// ListenSharded's per-queue read loops.
	pinned bool

	stats transportStats

	// tel receives transport-fault events (socket send errors, oversized
	// datagrams); nil disables. Atomic so SetTelemetry is safe while
	// sends are in flight.
	tel atomic.Pointer[telemetry.Recorder]

	mu        sync.Mutex
	handler   func(src string, datagram []byte)
	peers     map[string]*net.UDPAddr
	resolving map[string]*resolveOp
	closed    bool
	done      chan struct{}
}

// transportStats are the vectorized-I/O counters, atomics because sends
// and the receive loop touch them concurrently.
type transportStats struct {
	batchSends     atomic.Uint64
	batchDatagrams atomic.Uint64
	batchRecvs     atomic.Uint64
	recvDatagrams  atomic.Uint64

	// Syscall accounting for the syscalls/datagram metric
	// (TestGSOLoopbackEqualSizeBurst): every send/recv system call
	// actually issued, including ones that returned EAGAIN.
	txSyscalls atomic.Uint64
	rxSyscalls atomic.Uint64

	// Offload counters (DESIGN.md §13).
	gsoSends     atomic.Uint64
	gsoSegments  atomic.Uint64
	gsoFallbacks atomic.Uint64
	groRecvs     atomic.Uint64
	groSegments  atomic.Uint64

	// recvErrors counts transient receive-syscall errnos the read loop
	// survived (ENOBUFS under memory pressure and the like).
	recvErrors atomic.Uint64

	// peerEvictions counts resolved-peer cache entries dropped at the
	// cache cap.
	peerEvictions atomic.Uint64
}

// Stats is a snapshot of the transport's vectorized-I/O and offload
// counters.
type Stats struct {
	BatchSends     uint64 // SendBatch calls issued
	BatchDatagrams uint64 // datagrams those calls transmitted
	BatchRecvs     uint64 // batched reads completed (recvmmsg returns)
	RecvDatagrams  uint64 // datagrams those reads carried (GRO segments included)

	TxSyscalls uint64 // send system calls issued (sendmmsg/sendmsg/sendto)
	RxSyscalls uint64 // receive system calls issued (recvmmsg/recvfrom)

	GsoSends     uint64 // UDP_SEGMENT super-datagrams transmitted
	GsoSegments  uint64 // datagrams coalesced into them
	GsoFallbacks uint64 // sticky GSO fallbacks (kernel or path refused)
	GroRecvs     uint64 // coalesced payloads the receive loop split
	GroSegments  uint64 // datagrams recovered from them

	RecvErrors    uint64 // transient receive errnos survived by the read loop
	PeerEvictions uint64 // resolved-peer cache evictions at the cap
}

// Stats returns a snapshot of the transport's counters. On platforms
// without sendmmsg/recvmmsg, BatchSends/BatchDatagrams still count the
// (looped) SendBatch calls and RecvDatagrams counts the per-datagram
// reads, while the batch-recv and offload counters stay zero.
func (t *Transport) Stats() Stats {
	return Stats{
		BatchSends:     t.stats.batchSends.Load(),
		BatchDatagrams: t.stats.batchDatagrams.Load(),
		BatchRecvs:     t.stats.batchRecvs.Load(),
		RecvDatagrams:  t.stats.recvDatagrams.Load(),
		TxSyscalls:     t.stats.txSyscalls.Load(),
		RxSyscalls:     t.stats.rxSyscalls.Load(),
		GsoSends:       t.stats.gsoSends.Load(),
		GsoSegments:    t.stats.gsoSegments.Load(),
		GsoFallbacks:   t.stats.gsoFallbacks.Load(),
		GroRecvs:       t.stats.groRecvs.Load(),
		GroSegments:    t.stats.groSegments.Load(),
		RecvErrors:     t.stats.recvErrors.Load(),
		PeerEvictions:  t.stats.peerEvictions.Load(),
	}
}

// Offload reports the kernel-offload state: gso is true while
// UDP_SEGMENT coalescing is active (probed at Listen; a kernel or
// path-MTU refusal clears it for the life of the transport), gro while
// the socket delivers UDP_GRO-coalesced payloads the receive loop splits.
func (t *Transport) Offload() (gso, gro bool) {
	return t.gsoOn.Load(), t.groOn
}

// Coalescible implements core.Coalescer: the engine's flush path keeps
// equal-size runs contiguous when the send offload can coalesce them.
func (t *Transport) Coalescible() bool { return t.gsoOn.Load() }

// SetTelemetry installs a recorder: socket send failures, oversized
// datagrams, offload fallbacks and transient receive errors append
// EventFault entries to its event ring (transport-scoped, connection 0),
// and installation itself records the Listen-time offload-probe verdict
// as an EventState. Nil uninstalls.
func (t *Transport) SetTelemetry(rec *telemetry.Recorder) {
	t.tel.Store(rec)
	if rec != nil {
		rec.Event(telemetry.EventState, 0, t.offloadCause())
	}
}

// Constant fault causes; the error paths may run per datagram under load.
const (
	causeSendError   = "udp: socket send error"
	causeTooLarge    = "udp: datagram exceeds UDP payload ceiling"
	causeRecvError   = "udp: transient receive error"
	causeGsoFallback = "udp: kernel refused UDP_SEGMENT; sendmmsg fallback"

	causeOffloadBoth = "udp: offload probe: gso+gro"
	causeOffloadGSO  = "udp: offload probe: gso only"
	causeOffloadGRO  = "udp: offload probe: gro only"
	causeOffloadNone = "udp: offload probe: unsupported"
)

// offloadCause maps the probe verdict to its constant event cause.
func (t *Transport) offloadCause() string {
	gso, gro := t.Offload()
	switch {
	case gso && gro:
		return causeOffloadBoth
	case gso:
		return causeOffloadGSO
	case gro:
		return causeOffloadGRO
	}
	return causeOffloadNone
}

// RecvBatchStats implements the engine's optional RecvBatcher interface.
func (t *Transport) RecvBatchStats() (batches, datagrams uint64) {
	return t.stats.batchRecvs.Load(), t.stats.recvDatagrams.Load()
}

// resolveOp is the single-flight state for one in-progress resolution:
// concurrent Sends to the same unresolved peer wait on done instead of
// issuing duplicate resolver queries.
type resolveOp struct {
	done chan struct{}
	addr *net.UDPAddr
	err  error
}

// Listen opens a UDP socket on addr ("127.0.0.1:0" for an ephemeral port)
// and starts the receive loop, with every kernel offload the probe finds.
func Listen(addr string) (*Transport, error) {
	return ListenWithOptions(addr, Options{})
}

// ListenWithOptions is Listen with explicit offload control.
func ListenWithOptions(addr string, opts Options) (*Transport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return newTransport(conn, opts, false), nil
}

// newTransport wraps an already-bound socket: the common body of Listen
// and ListenSharded. pinned read loops lock their OS thread.
func newTransport(conn *net.UDPConn, opts Options, pinned bool) *Transport {
	t := &Transport{
		conn:      conn,
		opts:      opts,
		pinned:    pinned,
		peers:     make(map[string]*net.UDPAddr),
		resolving: make(map[string]*resolveOp),
		done:      make(chan struct{}),
	}
	t.initOS()
	go t.readLoop()
	return t
}

// LocalAddr returns the bound address in host:port form.
func (t *Transport) LocalAddr() string { return t.conn.LocalAddr().String() }

// SetHandler installs the receive callback. It runs on the transport's
// receive goroutine; the datagram slice is the transport's receive buffer
// and is only valid for the duration of the call — the handler must copy
// anything it retains.
func (t *Transport) SetHandler(h func(src string, datagram []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// resolve returns the cached address for dst, resolving it once if
// needed. Destination addresses are resolved once and cached; concurrent
// callers for the same new peer share a single resolution, and a batch
// resolves its destination once for the whole burst. The cache is capped
// at peerCacheLimit: past it, one arbitrary entry is evicted per insert
// (counted in Stats.PeerEvictions), so a churn storm of distinct peers
// cannot grow the transport without bound — an evicted live peer just
// pays one re-resolution on its next send.
func (t *Transport) resolve(dst string) (*net.UDPAddr, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	ua := t.peers[dst]
	if ua != nil {
		t.mu.Unlock()
		return ua, nil
	}
	op := t.resolving[dst]
	if op == nil {
		// First caller resolves; later ones wait on op.done.
		op = &resolveOp{done: make(chan struct{})}
		t.resolving[dst] = op
		t.mu.Unlock()
		op.addr, op.err = resolveUDPAddr("udp", dst)
		close(op.done)
		t.mu.Lock()
		delete(t.resolving, dst)
		// Skip the cache insert if Close won the race: a write
		// after Close would resurrect state the shutdown already
		// swept.
		if op.err == nil && !t.closed {
			if len(t.peers) >= peerCacheLimit {
				for k := range t.peers {
					delete(t.peers, k)
					t.stats.peerEvictions.Add(1)
					break
				}
			}
			t.peers[dst] = op.addr
		}
		t.mu.Unlock()
	} else {
		t.mu.Unlock()
		<-op.done
	}
	if op.err != nil {
		return nil, op.err
	}
	return op.addr, nil
}

// Send transmits one datagram to dst (host:port). Destination addresses
// are resolved once and cached; concurrent Sends to the same new peer
// share a single resolution.
func (t *Transport) Send(dst string, datagram []byte) error {
	if len(datagram) > MaxDatagram {
		t.tel.Load().Event(telemetry.EventFault, 0, causeTooLarge)
		return fmt.Errorf("%w: %d > %d", ErrDatagramTooLarge, len(datagram), MaxDatagram)
	}
	ua, err := t.resolve(dst)
	if err != nil {
		return err
	}
	t.stats.txSyscalls.Add(1)
	_, err = t.conn.WriteToUDP(datagram, ua)
	if err != nil {
		t.tel.Load().Event(telemetry.EventFault, 0, causeSendError)
	}
	return err
}

// SendBatch transmits the datagrams to dst in order — one sendmmsg
// system call per chunk on Linux (with equal-size runs coalesced into
// UDP_SEGMENT super-datagrams when the kernel offload is on), a
// WriteToUDP loop elsewhere. It implements the engine's BatchTransport
// contract: sent is the prefix of datagrams transmitted, and a non-nil
// error describes the datagram at index sent (the rest were not
// attempted). The destination is resolved once for the whole batch.
func (t *Transport) SendBatch(dst string, datagrams [][]byte) (sent int, err error) {
	if len(datagrams) == 0 {
		return 0, nil
	}
	ua, err := t.resolve(dst)
	if err != nil {
		return 0, err
	}
	t.stats.batchSends.Add(1)
	sent, err = t.sendBatchWire(ua, datagrams)
	t.stats.batchDatagrams.Add(uint64(sent))
	if err != nil {
		t.tel.Load().Event(telemetry.EventFault, 0, causeSendError)
	}
	return sent, err
}

// SendBatchTo transmits the datagrams to their per-index destinations in
// order — the engine's BatchToTransport contract (the group-fanout
// shape: one burst, every datagram bound for a different member). On
// Linux one sendmmsg system call carries up to 64 datagrams, each header
// with its own sockaddr; elsewhere it degrades to a WriteToUDP loop.
// sent is the prefix transmitted and a non-nil error describes the
// datagram at index sent. Destinations are resolved through the cached
// peer table, one lookup per datagram.
func (t *Transport) SendBatchTo(dsts []string, datagrams [][]byte) (sent int, err error) {
	if len(dsts) != len(datagrams) {
		return 0, fmt.Errorf("udp: SendBatchTo: %d dsts for %d datagrams", len(dsts), len(datagrams))
	}
	if len(datagrams) == 0 {
		return 0, nil
	}
	t.stats.batchSends.Add(1)
	sent, err = t.sendBatchToWire(dsts, datagrams)
	t.stats.batchDatagrams.Add(uint64(sent))
	if err != nil {
		t.tel.Load().Event(telemetry.EventFault, 0, causeSendError)
	}
	return sent, err
}

// sendBatchToLoop is the portable scattered-destination batch body: one
// resolve + WriteToUDP per datagram. The vectorized platform also falls
// back to it when the raw socket is unreachable.
func (t *Transport) sendBatchToLoop(dsts []string, datagrams [][]byte) (int, error) {
	for i, d := range datagrams {
		if len(d) > MaxDatagram {
			return i, fmt.Errorf("%w: %d > %d", ErrDatagramTooLarge, len(d), MaxDatagram)
		}
		ua, err := t.resolve(dsts[i])
		if err != nil {
			return i, err
		}
		t.stats.txSyscalls.Add(1)
		if _, err := t.conn.WriteToUDP(d, ua); err != nil {
			return i, err
		}
	}
	return len(datagrams), nil
}

// sendBatchLoop is the portable batch body: one WriteToUDP per datagram.
// The vectorized platforms also fall back to it for address shapes the
// raw path cannot encode (zoned IPv6).
func (t *Transport) sendBatchLoop(ua *net.UDPAddr, datagrams [][]byte) (int, error) {
	for i, d := range datagrams {
		if len(d) > MaxDatagram {
			return i, fmt.Errorf("%w: %d > %d", ErrDatagramTooLarge, len(d), MaxDatagram)
		}
		t.stats.txSyscalls.Add(1)
		if _, err := t.conn.WriteToUDP(d, ua); err != nil {
			return i, err
		}
	}
	return len(datagrams), nil
}

// Close shuts the socket down and stops the receive loop.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	<-t.done
	return err
}

// srcKeyCache caches the rendered host:port form of the receive loop's
// source address across a run of datagrams from one peer (traffic is
// typically such runs, and UDPAddr.String allocates). The key is only
// reused when IP, port AND zone all match: two link-local IPv6 peers
// with the same address on different interfaces are distinct peers, and
// conflating them would mis-attribute cookies (the vectorized loop's
// rawAddrEqual compares Scope_id for the same reason).
type srcKeyCache struct {
	addr net.UDPAddr
	key  string
}

// lookup returns the cached key when src matches the cached peer, else
// re-renders and re-caches it.
func (c *srcKeyCache) lookup(src *net.UDPAddr) string {
	if src.Port != c.addr.Port || src.Zone != c.addr.Zone || !src.IP.Equal(c.addr.IP) {
		c.addr = net.UDPAddr{IP: append(c.addr.IP[:0], src.IP...), Port: src.Port, Zone: src.Zone}
		c.key = src.String()
	}
	return c.key
}

// readLoopGeneric is the portable per-datagram receive loop; the
// vectorized platforms fall back to it when the raw socket is not
// reachable (SyscallConn failure).
func (t *Transport) readLoopGeneric() {
	buf := make([]byte, 65536)
	var cache srcKeyCache
	for {
		t.stats.rxSyscalls.Add(1)
		n, src, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		t.stats.recvDatagrams.Add(1)
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h == nil {
			continue
		}
		// The handler borrows the receive buffer; per the Transport
		// contract it must copy anything it retains past the call.
		h(cache.lookup(src), buf[:n])
	}
}

// splitSegments invokes emit once per segSize-long segment of payload
// (the final segment may be shorter) and reports the segment count. This
// is the GRO receive split: a kernel-coalesced payload becomes the
// original wire datagrams again, each a subslice of the receive ring —
// no copies, no allocations, same borrow-only handler contract.
func splitSegments(payload []byte, segSize int, emit func([]byte)) int {
	n := 0
	for off := 0; off < len(payload); off += segSize {
		end := off + segSize
		if end > len(payload) {
			end = len(payload)
		}
		emit(payload[off:end])
		n++
	}
	return n
}
