package core

import (
	"time"

	"paccel/internal/bits"
	"paccel/internal/layers"
	"paccel/internal/stack"
	"paccel/internal/telemetry"
	"paccel/internal/vclock"
)

// Transport is the unreliable datagram interface the PA runs over — the
// U-Net contract of the paper. Both netsim.Endpoint and udp.Transport
// satisfy it.
//
// Buffer ownership: the datagram slice passed to the handler is only
// valid for the duration of the call — transports recycle their receive
// buffers, so the handler must copy anything it retains (the engine's
// router copies into a pooled message immediately). Transports may invoke
// the handler concurrently from multiple goroutines; the engine's router
// is safe for concurrent receives and serializes per connection only.
type Transport interface {
	// Send transmits one datagram; delivery is unreliable. The datagram
	// is owned by the caller again once Send returns (implementations
	// copy what they queue).
	Send(dst string, datagram []byte) error
	// SetHandler installs the receive callback.
	SetHandler(h func(src string, datagram []byte))
	// LocalAddr names this endpoint.
	LocalAddr() string
	// Close shuts the transport down.
	Close() error
}

// BatchTransport is optionally implemented by transports that can
// transmit a burst of datagrams in one call — Linux sendmmsg on the UDP
// transport, deterministic burst delivery on netsim. The engine's
// transmit flush detects it once at endpoint construction and drains the
// whole tx queue per call instead of paying one Send per wire image.
//
// Contract: the datagrams are transmitted in slice order, and sent is how
// many of them were — always a prefix. A non-nil err describes a failure
// of the datagram at index sent; the datagrams after it were not
// attempted, and err == nil implies sent == len(datagrams). Loss on an
// unreliable link is not an error: a datagram the transport accepted and
// then dropped counts as sent. Buffer ownership matches Send — every
// datagram is the caller's again once SendBatch returns.
type BatchTransport interface {
	Transport
	SendBatch(dst string, datagrams [][]byte) (sent int, err error)
}

// BatchToTransport is optionally implemented by transports that can
// transmit a burst of datagrams with per-datagram destinations in one
// call — the group-fanout shape, where every datagram of the burst goes
// to a different member. On the Linux UDP transport one sendmmsg call
// carries the whole burst (each header with its own sockaddr); netsim
// and the topology deliver the burst in order. The fanout engine detects
// it once at endpoint construction, like BatchTransport.
//
// Contract: dsts and datagrams are parallel slices of equal length;
// datagrams are transmitted in slice order, and sent is how many of
// them were — always a prefix. A non-nil err describes a failure of the
// datagram at index sent (its destination is dsts[sent]); the datagrams
// after it were not attempted, and err == nil implies
// sent == len(datagrams). Loss on an unreliable link is not an error.
// Buffer ownership matches Send — every datagram is the caller's again
// once SendBatchTo returns.
type BatchToTransport interface {
	Transport
	SendBatchTo(dsts []string, datagrams [][]byte) (sent int, err error)
}

// RecvBatcher is optionally implemented by transports whose receive path
// is vectorized (Linux recvmmsg): RecvBatchStats reports how many batched
// reads have completed and how many datagrams they carried.
// Endpoint.Stats folds the counters into its snapshot.
type RecvBatcher interface {
	RecvBatchStats() (batches, datagrams uint64)
}

// MultiQueueTransport is optionally implemented by transports whose
// receive path is sharded across several independent sockets/read loops
// (udp.ListenSharded's SO_REUSEPORT queues). The endpoint detects it
// once at construction, like BatchTransport, and Snapshot reports the
// queue count plus per-queue receive counters so load imbalance across
// the kernel's flow hash stays observable.
type MultiQueueTransport interface {
	// NumQueues reports how many receive queues the transport runs.
	NumQueues() int
	// QueueRecvStats reports queue i's completed batched reads and the
	// datagrams they carried (i in [0, NumQueues)).
	QueueRecvStats(i int) (batches, datagrams uint64)
}

// Coalescer is optionally implemented by transports whose batch send
// path can merge a run of equal-size datagrams into one kernel
// super-datagram (UDP_SEGMENT). When Coalescible reports true, the
// engine's flush path groups the drained tx queue's equal-size datagrams
// into contiguous runs before SendBatch, so interleaved traffic from
// packing/fragmentation still presents the shape the offload needs. The
// report may change over the transport's life (a path-MTU refusal
// disables the offload), so the flush path re-checks per drain.
type Coalescer interface {
	Coalescible() bool
}

// PeerSpec identifies one connection: the peer's network address plus the
// connection identification both sides agree on (§2.1 class 1).
type PeerSpec struct {
	// Addr is the transport address of the peer.
	Addr string
	// LocalID and RemoteID are the endpoint identifiers (at most
	// layers.EndpointIDLen bytes).
	LocalID, RemoteID []byte
	// LocalPort and RemotePort demultiplex connections between the same
	// endpoints.
	LocalPort, RemotePort uint16
	// Epoch distinguishes incarnations of the connection.
	Epoch uint32

	// OutCookie fixes the outgoing connection cookie; 0 draws a random
	// one (the paper's behaviour).
	OutCookie uint64
	// ExpectInCookie pre-registers the peer's cookie, the §2.2
	// "agree on a cookie before starting to use it" alternative. 0
	// means the cookie is learned from the first identified message.
	ExpectInCookie uint64
	// SkipFirstConnID suppresses the connection identification on the
	// first message; only safe together with a cookie agreement.
	SkipFirstConnID bool
}

// StackBuilder constructs the protocol stack for a new connection, top
// layer first. The stack must contain an identification layer (one whose
// layer implements Identifier, normally *layers.Ident) for routing.
//
// The endpoint compiles the shape of the stack — header layout and filter
// programs — once (plan.go) and initializes every later connection's
// layers against that plan: their Init runs as always, but is checked
// against what was compiled instead of compiled again. Two consequences
// for implementers. A builder may run more than once for one dial: when
// the layers it returned turn out not to follow the plan they are
// discarded and it is called again for the set that is compiled, so it
// must do nothing but construct layers. And a layer's Init must be a
// function of the layer's configuration: the same fields, in the same
// order, and the same filter instructions every time, or no two
// connections share a plan.
type StackBuilder func(spec PeerSpec, order bits.ByteOrder) ([]stack.Layer, error)

// Identifier is implemented by the stack's connection-identification
// layer; the engine uses it for routing and identification parsing.
type Identifier interface {
	stack.Layer
	ExpectedIncoming(hdrSize int, peerOrder bits.ByteOrder) []byte
	ParseIncoming(hdr []byte, order bits.ByteOrder) layers.IdentInfo
}

// Config configures an Endpoint. Transport is required; everything else
// has working defaults.
type Config struct {
	// Transport carries the PA's datagrams.
	Transport Transport
	// Clock drives timers and timestamps; nil means the real clock.
	Clock vclock.Clock
	// Order is this host's native byte order for header fields.
	Order bits.ByteOrder
	// Build constructs each connection's stack; nil means DefaultStack.
	// All connections of one endpoint must identify themselves the same
	// way (the same connection-identification fields), a routing
	// requirement, and should have one shape altogether: the compiled
	// plan is shared while the shape stays the same and compiled again,
	// at the dial's expense, each time it changes. Build may run more
	// than once for one dial (see StackBuilder).
	Build StackBuilder
	// Accept, if non-nil, is consulted when an identified message
	// arrives for an unknown connection: return the spec for a new
	// connection and true to accept it. The new connection is handed to
	// OnConn.
	Accept func(remote layers.IdentInfo, netSrc string) (PeerSpec, bool)
	// OnConn observes every connection created by Accept.
	OnConn func(*Conn)
	// MaxBacklog bounds the send backlog; 0 means 1024. A send that
	// finds the window closed and the backlog at the bound returns
	// ErrBacklogFull (which wraps ErrBackpressure) — or blocks, with
	// BlockOnBackpressure — instead of growing memory without limit.
	MaxBacklog int
	// BlockOnBackpressure makes Send block until backlog space frees
	// (or the connection closes or fails) instead of returning
	// ErrBacklogFull.
	BlockOnBackpressure bool
	// PeerTimeout enables dead-peer detection: a connection that hears
	// nothing from its peer for a full PeerTimeout interval moves to the
	// Failed state with ErrPeerSilent, surfaced via OnConnFail and the
	// Conn State/Err API. Detection costs one counter increment per
	// delivery and one timer per connection; latency is between one and
	// two intervals. 0 disables.
	PeerTimeout time.Duration
	// OnConnFail observes every connection entering the Failed state,
	// with the failure cause. It runs without the connection lock, so it
	// may use the Conn API (typically to Close it).
	OnConnFail func(*Conn, error)
	// Recovery configures the redial engine (recovery.go): with
	// MaxAttempts > 0, a connection that would fail enters the
	// Recovering state instead and probes the peer on an exponential-
	// backoff schedule with full jitter, resuming the session through
	// the identified first-message path (§2.2). The zero value keeps
	// failure terminal.
	Recovery RecoveryConfig
	// MaxConns is the hard capacity of the endpoint: the maximum number
	// of live connections (dialed or accepted). At capacity, new
	// connections are refused with ErrAdmissionFull (or handled by the
	// configured shed policy) before anything is allocated for them.
	// 0 means DefaultMaxConns.
	MaxConns int
	// Admission tunes the overload-protection machinery on the
	// new-connection path: shed policy, early-drop ramp, storm
	// detection. The zero value rejects new connections at MaxConns and
	// never sheds below capacity. See DESIGN.md §14.
	Admission AdmissionConfig
	// CookieTTL enables garbage collection of learned cookie routes: a
	// learned binding idle for more than the TTL (at most 1.5×TTL) is
	// evicted from the router (EndpointStats.CookiesEvicted), bounding
	// router memory under peer churn. A live peer recovers on its next
	// identified message, which re-learns the cookie (§2.2). Pre-agreed
	// cookies (PeerSpec.ExpectInCookie) are never evicted. 0 disables.
	CookieTTL time.Duration
	// Telemetry, if non-nil, receives latency histograms for the
	// critical-path operations (send pre-processing, post-processing,
	// delivery, batch flushes, recovery probes) and structured
	// connection events (state transitions, faults, migrations,
	// resumptions). Nil disables recording; the instrumented paths then
	// cost one predictable nil-check branch and never read the clock
	// (see DESIGN.md §12 for the overhead contract).
	Telemetry *telemetry.Recorder
	// TelemetrySampleEvery records the duration of one in every N
	// critical-path operations per connection (rounded up to a power of
	// two); events are never sampled. Duration spans cost two wall-clock
	// reads, which is measurable against a sub-microsecond fast path, so
	// the default samples 1 in 8 — dense enough for live percentiles,
	// cheap enough to leave on. 1 records every operation. 0 means 8.
	TelemetrySampleEvery int
}

func (c *Config) clock() vclock.Clock {
	if c.Clock == nil {
		return vclock.Real{}
	}
	return c.Clock
}

func (c *Config) build() StackBuilder {
	if c.Build == nil {
		return DefaultStack
	}
	return c.Build
}

func (c *Config) maxBacklog() int {
	if c.MaxBacklog <= 0 {
		return 1024
	}
	return c.MaxBacklog
}

// DefaultMaxConns is the endpoint capacity when Config.MaxConns is 0 —
// the million-connection target of the churn work, ISSUE/ROADMAP item 2.
const DefaultMaxConns = 1 << 20

func (c *Config) maxConns() int {
	if c.MaxConns <= 0 {
		return DefaultMaxConns
	}
	return c.MaxConns
}

const (
	// gcSweepBudget bounds how many routing-table slots one CookieTTL GC
	// sweep examines; larger tables are covered by proportionally more
	// frequent sweeps instead of longer ones, keeping the sweep pause
	// bounded at any table size.
	gcSweepBudget = 4096
	// maxPack bounds how many messages one packed message may carry (the
	// count half of the §3.4 bound; the stack's declared frame limit,
	// plan.maxPayload, is the byte half).
	maxPack = 64
)

// telemetrySampleMask resolves TelemetrySampleEvery to a power-of-two
// sampling mask (count&mask == 0 selects the sampled operations).
func (c *Config) telemetrySampleMask() uint32 {
	n := c.TelemetrySampleEvery
	if n <= 0 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return uint32(p - 1)
}

// Mode is the operation state of one PA side (paper Table 3).
type Mode uint8

// Table 3 modes.
const (
	Idle Mode = iota
	Pre
	Post
)

// String returns the Table 3 name of the mode.
func (m Mode) String() string {
	switch m {
	case Idle:
		return "IDLE"
	case Pre:
		return "PRE"
	case Post:
		return "POST"
	}
	return "?"
}

// ConnStats counts per-connection PA events. Fast* are critical-path
// operations that bypassed the protocol stack entirely; Slow* fell back to
// layered processing.
type ConnStats struct {
	Sent          uint64 // application messages accepted for sending
	FastSends     uint64
	SlowSends     uint64
	Backlogged    uint64 // sends queued while prediction was disabled
	PackedBatches uint64 // packed messages transmitted
	PackedMsgs    uint64 // application messages carried inside them

	Delivered    uint64 // application messages handed up
	FastDelivers uint64
	SlowDelivers uint64
	Consumed     uint64 // absorbed by a layer (acks, fragments, keepalives)
	Dropped      uint64 // filter or layer verdicts

	ConnIDSent  uint64 // messages that carried the identification
	PostRuns    uint64 // post-processing tasks executed
	ControlMsgs uint64 // layer-generated messages transmitted
	Retransmits uint64 // raw retransmissions

	Recoveries     uint64 // times the connection entered Recovering
	Recovered      uint64 // recoveries completed (peer heard again)
	RecoveryProbes uint64 // probe rounds sent while recovering
	PeerMigrations uint64 // route rewrites following the peer's address

	SendErrors uint64
}
