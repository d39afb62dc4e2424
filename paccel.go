// Package paccel is a Go implementation of the Protocol Accelerator from
// Robbert van Renesse, "Masking the Overhead of Protocol Layering"
// (SIGCOMM 1996) — the engine that made a four-layer Horus protocol stack
// written in O'Caml do 170 µs round trips over ATM.
//
// Layered protocol stacks pay two taxes: per-layer padded headers carrying
// large immutable addresses on every message, and a walk through every
// layer on the send and delivery critical paths. The Protocol Accelerator
// masks both:
//
//   - header fields are registered by class (connection identification,
//     protocol-specific, message-specific, gossip) and compiled into
//     compact cross-layer headers (internal/header);
//   - the large connection identification is replaced on the wire by a
//     62-bit random cookie in an 8-byte preamble (internal/core);
//   - protocol-specific headers are predicted from protocol state, so a
//     send or delivery usually touches no layer code at all;
//   - message-specific fields (length, checksum, timestamp) are filled in
//     and verified by small validated packet-filter programs that run in
//     both critical paths (internal/filter);
//   - protocol state updates are split off as post-processing and run
//     lazily, off the critical path (internal/stack);
//   - backlogs are packed: many application messages share one protocol
//     message and one pre/post cycle (§3.4).
//
// The package surface re-exports the engine (internal/core), the
// micro-layers (internal/layers), and the transports. A minimal echo
// client:
//
//	net := paccel.NewSimNetwork(paccel.SimConfig{})
//	ep, _ := paccel.NewEndpoint(paccel.Config{Transport: net.Endpoint("A")})
//	conn, _ := ep.Dial(paccel.PeerSpec{
//		Addr: "B", LocalID: []byte("client"), RemoteID: []byte("server"),
//	})
//	conn.OnDeliver(func(p []byte) { fmt.Printf("got %q\n", p) })
//	conn.Send([]byte("hello"))
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package paccel

import (
	"paccel/internal/core"
	"paccel/internal/faultinject"
	"paccel/internal/group"
	"paccel/internal/layers"
	"paccel/internal/netsim"
	"paccel/internal/rpc"
	"paccel/internal/telemetry"
	"paccel/internal/udp"
	"paccel/internal/vclock"
)

// Core engine types.
type (
	// Config configures an Endpoint; see core.Config.
	Config = core.Config
	// Endpoint owns a transport and routes datagrams to connections.
	Endpoint = core.Endpoint
	// Conn is one accelerated connection.
	Conn = core.Conn
	// ConnStats are the per-connection counters (fast/slow path hits,
	// packing, retransmissions).
	ConnStats = core.ConnStats
	// EndpointStats are the router-level counters (demultiplexing,
	// cookie learning, collisions).
	EndpointStats = core.EndpointStats
	// PeerSpec identifies a connection's two ends.
	PeerSpec = core.PeerSpec
	// Transport is the unreliable datagram contract (U-Net-like).
	Transport = core.Transport
	// BatchTransport is the optional vectorized-send extension of
	// Transport: the engine's transmit flush drains a whole burst per
	// SendBatch call instead of paying one Send per datagram (Linux
	// sendmmsg on the UDP transport; see DESIGN.md §11). All three
	// shipped transports implement it.
	BatchTransport = core.BatchTransport
	// MultiQueueTransport is the optional sharded-receive extension of
	// Transport: N independent read loops on one port (SO_REUSEPORT on
	// the UDP transport; see ListenShardedUDP and DESIGN.md §13), with
	// per-queue receive stats folded into EndpointStats.
	MultiQueueTransport = core.MultiQueueTransport
	// BatchToTransport is the optional scattered-destination extension
	// of Transport: one SendBatchTo call transmits a burst where every
	// datagram has its own destination (Linux sendmmsg with per-message
	// addresses on the UDP transport), the contract under group fanout.
	// All three shipped transports implement it.
	BatchToTransport = core.BatchToTransport
	// Fanout is the zero-allocation group-multicast engine: one
	// pre-processing pass builds a template datagram shared by every
	// member, a stamping pass fills only the member-specific predicted
	// headers, and the whole fanout transmits as one batch. See
	// DESIGN.md §16.
	Fanout = core.Fanout
	// StackBuilder constructs a connection's protocol stack. The endpoint
	// compiles the header layout and the packet filters of the stack's
	// shape once and every later connection replays its layers' Init
	// against that plan, so a builder may run more than once for one dial
	// (it must be free of side effects beyond allocating the layers), and
	// a layer's Init must register the same fields and emit the same
	// filter instructions whenever it is configured the same way.
	StackBuilder = core.StackBuilder
	// IdentInfo is a parsed incoming connection identification.
	IdentInfo = layers.IdentInfo
	// RecoveryConfig configures the self-healing redial engine
	// (Config.Recovery): with MaxAttempts > 0, a failing connection
	// enters Recovering and probes the peer on an exponential-backoff
	// schedule with full jitter, resuming the session through the
	// identified first-message path instead of going terminal.
	RecoveryConfig = core.RecoveryConfig
	// AdmissionConfig configures overload protection (Config.Admission):
	// the shed policy applied when the endpoint is at Config.MaxConns,
	// the early-drop ramp, and the connect-storm detector that tightens
	// admission during churn spikes and relaxes on drain. See DESIGN.md
	// §14.
	AdmissionConfig = core.AdmissionConfig
	// ShedPolicy selects what happens to a new connection arriving at a
	// full endpoint.
	ShedPolicy = core.ShedPolicy
)

// Simulated network types.
type (
	// SimConfig configures the in-memory network (latency, loss,
	// reordering, duplication, bit rate).
	SimConfig = netsim.Config
	// SimNetwork is the in-memory unreliable datagram network.
	SimNetwork = netsim.Network
)

// Errors surfaced by connections.
var (
	// ErrBackpressure is the category every send-overload error wraps;
	// errors.Is(err, ErrBackpressure) matches any of them.
	ErrBackpressure = core.ErrBackpressure
	// ErrBacklogFull reports send backpressure: the window is closed
	// and the backlog is at capacity. Retry after a pause (or set
	// Config.BlockOnBackpressure to block instead). Wraps
	// ErrBackpressure.
	ErrBacklogFull = core.ErrBacklogFull
	// ErrConnClosed reports operations on a closed connection.
	ErrConnClosed = core.ErrConnClosed
	// ErrConnFailed wraps every cause that moves a connection to the
	// Failed state (supervision, Conn.Fail).
	ErrConnFailed = core.ErrConnFailed
	// ErrPeerSilent is the failure cause assigned by dead-peer detection
	// (Config.PeerTimeout). Wrapped by ErrConnFailed.
	ErrPeerSilent = core.ErrPeerSilent
	// ErrRecoveryExhausted reports that the redial engine ran out of
	// retry budget (Config.Recovery.MaxAttempts); the stored failure
	// cause wraps both this and ErrConnFailed, plus the original
	// trigger.
	ErrRecoveryExhausted = core.ErrRecoveryExhausted
	// ErrCookieCollision reports a Dial whose pre-agreed incoming cookie
	// is already routed to a live connection.
	ErrCookieCollision = core.ErrCookieCollision
	// ErrAdmission is the category every admission refusal wraps: the
	// endpoint refused to create a connection under overload. Wraps
	// ErrBackpressure, so existing overload handling catches it.
	ErrAdmission = core.ErrAdmission
	// ErrAdmissionFull reports a connection refused because the endpoint
	// holds Config.MaxConns connections. Wraps ErrAdmission.
	ErrAdmissionFull = core.ErrAdmissionFull
	// ErrAdmissionStorm reports a connection refused by the connect-storm
	// limiter (AdmissionConfig.StormRate). Wraps ErrAdmission.
	ErrAdmissionStorm = core.ErrAdmissionStorm
	// ErrAdmissionEarlyDrop reports a connection probabilistically shed
	// as the table approached capacity (ShedEarlyDrop policy). Wraps
	// ErrAdmission.
	ErrAdmissionEarlyDrop = core.ErrAdmissionEarlyDrop
	// ErrDatagramTooLarge reports a datagram over the UDP transport's
	// 65507-byte payload ceiling; the fragmentation layer normally
	// splits messages well below it.
	ErrDatagramTooLarge = udp.ErrDatagramTooLarge
	// ErrNonceExhausted reports a secure channel whose per-epoch nonce
	// space is spent: the connection hard-fails (no recovery — a resume
	// would rekey and mask the guard). Wrapped by ErrConnFailed in
	// Conn.Err.
	ErrNonceExhausted = layers.ErrNonceExhausted
)

// Shed policies (AdmissionConfig.Policy).
const (
	// ShedRejectNew refuses new connections at capacity (the default).
	ShedRejectNew = core.ShedRejectNew
	// ShedEvictIdle evicts the longest-idle learned connection to make
	// room for a new one.
	ShedEvictIdle = core.ShedEvictIdle
	// ShedEarlyDrop probabilistically refuses new connections as the
	// table fills, spreading refusals before the hard wall.
	ShedEarlyDrop = core.ShedEarlyDrop
)

// DefaultMaxConns is the connection-capacity default when Config.MaxConns
// is zero: one million connections per endpoint.
const DefaultMaxConns = core.DefaultMaxConns

// ConnState is a connection's lifecycle state (Conn.State).
type ConnState = core.ConnState

// Connection lifecycle states.
const (
	// StateActive is a healthy connection.
	StateActive = core.StateActive
	// StateFailed is a connection whose supervision (or Fail call)
	// declared it dead; Conn.Err holds the cause.
	StateFailed = core.StateFailed
	// StateClosed is a connection after Close.
	StateClosed = core.StateClosed
	// StateRecovering is a connection the redial engine is bringing
	// back (Config.Recovery): sends backlog, incoming datagrams still
	// deliver, and the first datagram heard completes the recovery.
	StateRecovering = core.StateRecovering
)

// Fault injection (internal/faultinject): a deterministic, seedable
// transport middleware for testing protocol robustness. Compose it over
// any Transport — the simulated network or real UDP.
type (
	// FaultTransport wraps a Transport with a programmable fault plan.
	FaultTransport = faultinject.Transport
	// FaultRule is one match-and-act entry of the plan.
	FaultRule = faultinject.Rule
	// FaultKind selects a rule's action.
	FaultKind = faultinject.Kind
	// FaultDirection selects which datagrams a rule inspects.
	FaultDirection = faultinject.Direction
	// FaultStats counts datagrams per applied fault.
	FaultStats = faultinject.Stats
)

// Fault kinds.
const (
	FaultDrop      = faultinject.Drop
	FaultDuplicate = faultinject.Duplicate
	FaultDelay     = faultinject.Delay
	FaultTruncate  = faultinject.Truncate
	FaultCorrupt   = faultinject.Corrupt
	FaultStall     = faultinject.Stall
)

// Fault rule directions.
const (
	FaultDirSend = faultinject.Send
	FaultDirRecv = faultinject.Recv
	FaultDirBoth = faultinject.Both
)

// NewFaultTransport wraps inner with a deterministic fault plan on the
// real clock (tests that need virtual time use faultinject.New with a
// manual clock directly). Seed 0 means a fixed default.
func NewFaultTransport(inner Transport, seed int64, rules ...FaultRule) *FaultTransport {
	return faultinject.New(inner, vclock.Real{}, seed, rules...)
}

// The fault injector's locally declared transport interface must remain
// structurally identical to the engine's Transport contract.
var _ Transport = (*FaultTransport)(nil)

// Every shipped transport must keep satisfying the engine's vectorized
// send contract, so endpoints over any of them batch their tx flushes.
var (
	_ BatchTransport = (*udp.Transport)(nil)
	_ BatchTransport = (*netsim.Endpoint)(nil)
	_ BatchTransport = (*FaultTransport)(nil)

	_ BatchToTransport = (*udp.Transport)(nil)
	_ BatchToTransport = (*netsim.Endpoint)(nil)
	_ BatchToTransport = (*FaultTransport)(nil)
	_ BatchToTransport = (*udp.Sharded)(nil)
)

// The sharded UDP listener must satisfy every engine contract its
// single-socket sibling does, plus the multi-queue capability.
var (
	_ BatchTransport      = (*udp.Sharded)(nil)
	_ MultiQueueTransport = (*udp.Sharded)(nil)
	_ core.RecvBatcher    = (*udp.Sharded)(nil)
	_ core.Coalescer      = (*udp.Sharded)(nil)
	_ core.Coalescer      = (*udp.Transport)(nil)
)

// NewEndpoint attaches a Protocol Accelerator endpoint to a transport.
func NewEndpoint(cfg Config) (*Endpoint, error) { return core.NewEndpoint(cfg) }

// NewFanout creates a group-multicast engine over connections of one
// endpoint: Send builds the datagram and runs the send filter once,
// stamps each member's predicted headers, and transmits the whole group
// as one batch.
func NewFanout(ep *Endpoint, conns ...*Conn) (*Fanout, error) {
	return core.NewFanout(ep, conns...)
}

// DefaultStack is the paper's four-layer configuration: checksum,
// fragmentation, 16-entry sliding window, connection identification.
var DefaultStack StackBuilder = core.DefaultStack

// NewSimNetwork creates an in-memory network on the real clock. For a
// deterministic virtual-time network, use netsim.New with vclock.NewManual
// directly (see the tests for examples).
func NewSimNetwork(cfg SimConfig) *SimNetwork {
	return netsim.New(vclock.Real{}, cfg)
}

// ListenUDP opens a UDP transport, for accelerated connections between
// real processes (the bench's rt_udp_8b and stream_udp_8b workloads run it
// over loopback).
func ListenUDP(addr string) (*udp.Transport, error) { return udp.Listen(addr) }

// ListenShardedUDP opens n SO_REUSEPORT UDP sockets on one port, each
// with its own pinned read loop feeding the endpoint's sharded router
// concurrently (DESIGN.md §13). On platforms without SO_REUSEPORT it
// degrades to a single socket.
func ListenShardedUDP(addr string, n int) (*udp.Sharded, error) { return udp.ListenSharded(addr, n) }

// PaperSimConfig returns the simulated network matching the paper's
// testbed: 35 µs one-way latency on 140 Mbit/s ATM.
func PaperSimConfig() SimConfig { return netsim.PaperConfig() }

// Group communication (the paper's multicast extension; see
// internal/group): reliable FIFO or totally-ordered multicast built from
// accelerated point-to-point connections.
type (
	// Group is one member's view of a process group.
	Group = group.Group
	// GroupMesh is a fully connected test/demo fabric of members.
	GroupMesh = group.Mesh
	// GroupOrder selects FIFO or Total delivery order.
	GroupOrder = group.Order
)

// Group delivery orders.
const (
	// GroupFIFO delivers each sender's messages in its send order.
	GroupFIFO = group.FIFO
	// GroupTotal delivers one identical global order at every member.
	GroupTotal = group.Total
)

// NewGroupMesh builds a full mesh of accelerated connections between the
// named members over an in-memory network on the real clock.
func NewGroupMesh(names []string, cfg SimConfig, order GroupOrder, sequencer string) (*GroupMesh, error) {
	return group.NewRealMesh(names, cfg, order, sequencer)
}

// RPC surface (see internal/rpc): correlated request/response calls over
// one accelerated connection — the §6 workload.
type (
	// RPCClient issues concurrent calls over a connection.
	RPCClient = rpc.Client
	// RPCHandler computes a response from a request.
	RPCHandler = rpc.Handler
)

// NewRPCClient wraps a connection for request/response calls.
func NewRPCClient(conn *Conn) *RPCClient { return rpc.NewClient(conn) }

// ServeRPC answers every request arriving on a server-side connection.
func ServeRPC(conn *Conn, h RPCHandler) { rpc.Serve(conn, h) }

// Observability (internal/telemetry): an always-on recorder of
// log-bucketed latency histograms (send pre-processing, lazy
// post-processing, delivery, transmit flush, recovery probes, one-way
// latency) and a fixed-capacity ring of structured connection events
// (state transitions, faults, migrations, resumptions). Install one via
// Config.Telemetry; the engine's fast paths stay allocation-free with it
// on, and a nil recorder costs one predictable branch. The same recorder
// can additionally be installed on the transports for fault events
// (SimNetwork.SetTelemetry, FaultTransport.SetTelemetry,
// udp.Transport.SetTelemetry). See DESIGN.md §12.
type (
	// Telemetry is the engine's histogram + event recorder.
	Telemetry = telemetry.Recorder
	// TelemetryOptions configures a recorder (clock, event capacity).
	TelemetryOptions = telemetry.Options
	// TelemetrySnapshot is a point-in-time view: per-operation histogram
	// summaries plus the retained events.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryEvent is one structured connection event.
	TelemetryEvent = telemetry.Event
	// TelemetryHistogram is one operation's histogram summary within a
	// TelemetrySnapshot.
	TelemetryHistogram = telemetry.HistogramSnapshot
	// TelemetryServer is the opt-in debug HTTP endpoint.
	TelemetryServer = telemetry.Server
)

// NewTelemetry creates a recorder with the given options; the zero value
// of TelemetryOptions selects the real clock and the default event
// capacity.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// ServeTelemetry exposes a recorder over HTTP for debugging: JSON
// snapshots at /telemetry and /telemetry/events, plus expvar and pprof.
// Opt-in — nothing listens unless this is called. Bind loopback
// ("127.0.0.1:0") unless the network is trusted.
func ServeTelemetry(addr string, rec *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, rec)
}

// StackOptions parameterizes BuildStack; the zero value is DefaultStack.
// See core.StackOptions for the fields.
type StackOptions = core.StackOptions

// SecureConfig configures the encrypted-channel layer that
// StackOptions.Secure adds; see core.SecureConfig.
type SecureConfig = core.SecureConfig

// UseSecure is shorthand for enabling the secure channel with a
// pre-shared key: BuildStack(paccel.StackOptions{Secure: paccel.UseSecure(key)}).
func UseSecure(key []byte) *SecureConfig { return &SecureConfig{Key: key} }

// SecureStats are the secure layer's counters (seals, opens, auth
// failures, rekeys, epoch adoptions); retrieve them via ConnSecureStats.
type SecureStats = layers.SecureStats

// ConnSecureStats returns the secure layer's counters for a connection
// built with StackOptions.Secure, and whether such a layer exists.
// Snapshot while the connection is quiescent.
func ConnSecureStats(c *Conn) (SecureStats, bool) { return c.SecureStats() }

// BuildStack returns a StackBuilder assembling the paper's stack with the
// given options (core.BuildStack, the one assembler every stack comes
// from).
func BuildStack(opts StackOptions) StackBuilder { return core.BuildStack(opts) }
