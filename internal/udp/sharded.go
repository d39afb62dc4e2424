package udp

// Receive-side sharding (DESIGN.md §13): ListenSharded stacks N
// SO_REUSEPORT sockets on one UDP port, each with its own pinned
// vectorized read loop and offload probe, so receive processing scales
// across cores without a central dispatch hop — the kernel's REUSEPORT
// flow hash plays the role of the NIC's receive-side dispatcher, and
// each queue's handler delivers straight into the engine's sharded
// cookie router (which is safe for concurrent receives by contract).

import (
	"errors"
	"fmt"

	"paccel/internal/telemetry"
)

// errShardingUnsupported is the sentinel the per-platform listenReusePort
// returns where SO_REUSEPORT stacking is unavailable; ListenSharded then
// degrades to a single plain socket.
var errShardingUnsupported = errors.New("udp: SO_REUSEPORT sharding unsupported on this platform")

// Sharded is a multi-queue datagram endpoint: N transports bound to the
// same local port. Receives fan in from every queue's read loop
// concurrently; sends hash the destination to a fixed queue, so one
// peer's traffic keeps a single source socket and in-order submission.
// It satisfies the same engine contracts as Transport (core.Transport,
// BatchTransport, RecvBatcher, Coalescer) plus core.MultiQueueTransport.
type Sharded struct {
	queues []*Transport
}

// ListenSharded opens n SO_REUSEPORT sockets on addr, each with its own
// pinned read loop and kernel-offload probe. n < 1 is treated as 1. On
// platforms without SO_REUSEPORT support it degrades to one plain
// socket (NumQueues reports 1) rather than failing — the offload tier is
// an accelerator, never a requirement.
func ListenSharded(addr string, n int) (*Sharded, error) {
	return ListenShardedWithOptions(addr, n, Options{})
}

// ListenShardedWithOptions is ListenSharded with explicit offload
// control for every queue.
func ListenShardedWithOptions(addr string, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	first, err := listenReusePort(addr)
	if err != nil {
		if !errors.Is(err, errShardingUnsupported) {
			return nil, err
		}
		t, err := ListenWithOptions(addr, opts)
		if err != nil {
			return nil, err
		}
		return &Sharded{queues: []*Transport{t}}, nil
	}
	s := &Sharded{queues: make([]*Transport, 0, n)}
	s.queues = append(s.queues, newTransport(first, opts, true))
	// addr may have been ":0"; later queues must bind the concrete
	// address the first socket drew.
	bound := first.LocalAddr().String()
	for len(s.queues) < n {
		conn, err := listenReusePort(bound)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("udp: sharded listen queue %d: %w", len(s.queues), err)
		}
		s.queues = append(s.queues, newTransport(conn, opts, true))
	}
	return s, nil
}

// NumQueues implements core.MultiQueueTransport.
func (s *Sharded) NumQueues() int { return len(s.queues) }

// QueueRecvStats implements core.MultiQueueTransport: the receive-side
// counters of queue i, exposing how evenly the kernel's REUSEPORT flow
// hash spreads the load.
func (s *Sharded) QueueRecvStats(i int) (batches, datagrams uint64) {
	return s.queues[i].RecvBatchStats()
}

// LocalAddr returns the shared bound address in host:port form.
func (s *Sharded) LocalAddr() string { return s.queues[0].LocalAddr() }

// SetHandler installs the receive callback on every queue. Handlers run
// concurrently, one goroutine per queue; the borrow-only buffer contract
// is per call, as with Transport.
func (s *Sharded) SetHandler(h func(src string, datagram []byte)) {
	for _, q := range s.queues {
		q.SetHandler(h)
	}
}

// queue hashes dst to its sending queue (FNV-1a). A stable mapping keeps
// each peer on one source socket, preserving per-peer send ordering and
// letting every queue's peer cache stay small.
func (s *Sharded) queue(dst string) *Transport {
	if len(s.queues) == 1 {
		return s.queues[0]
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(dst); i++ {
		h ^= uint64(dst[i])
		h *= 1099511628211
	}
	return s.queues[h%uint64(len(s.queues))]
}

// Send transmits one datagram to dst via its hashed queue.
func (s *Sharded) Send(dst string, datagram []byte) error {
	return s.queue(dst).Send(dst, datagram)
}

// SendBatch drains the burst via dst's hashed queue; the BatchTransport
// prefix contract is the queue's.
func (s *Sharded) SendBatch(dst string, datagrams [][]byte) (sent int, err error) {
	return s.queue(dst).SendBatch(dst, datagrams)
}

// SendBatchTo transmits a scattered-destination burst, the engine's
// BatchToTransport contract. Destinations are hashed to their queues
// exactly as Send would, and consecutive same-queue runs ride one
// vectorized call each, so a sorted fanout over few queues keeps most of
// the syscall amortization.
func (s *Sharded) SendBatchTo(dsts []string, datagrams [][]byte) (sent int, err error) {
	if len(dsts) != len(datagrams) {
		return 0, fmt.Errorf("udp: SendBatchTo: %d dsts for %d datagrams", len(dsts), len(datagrams))
	}
	for sent < len(dsts) {
		q := s.queue(dsts[sent])
		j := sent + 1
		for j < len(dsts) && s.queue(dsts[j]) == q {
			j++
		}
		n, err := q.SendBatchTo(dsts[sent:j], datagrams[sent:j])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Offload reports queue 0's offload state (every queue probes the same
// kernel, so the verdicts agree; a per-queue sticky GSO fallback can
// diverge, which per-queue Stats expose).
func (s *Sharded) Offload() (gso, gro bool) { return s.queues[0].Offload() }

// Coalescible implements core.Coalescer; see Transport.Coalescible.
func (s *Sharded) Coalescible() bool { return s.queues[0].Coalescible() }

// Stats returns the aggregate counters summed across queues.
func (s *Sharded) Stats() Stats {
	var agg Stats
	for _, q := range s.queues {
		st := q.Stats()
		agg.BatchSends += st.BatchSends
		agg.BatchDatagrams += st.BatchDatagrams
		agg.BatchRecvs += st.BatchRecvs
		agg.RecvDatagrams += st.RecvDatagrams
		agg.TxSyscalls += st.TxSyscalls
		agg.RxSyscalls += st.RxSyscalls
		agg.GsoSends += st.GsoSends
		agg.GsoSegments += st.GsoSegments
		agg.GsoFallbacks += st.GsoFallbacks
		agg.GroRecvs += st.GroRecvs
		agg.GroSegments += st.GroSegments
		agg.RecvErrors += st.RecvErrors
		agg.PeerEvictions += st.PeerEvictions
	}
	return agg
}

// RecvBatchStats implements core.RecvBatcher with the sum across queues.
func (s *Sharded) RecvBatchStats() (batches, datagrams uint64) {
	for _, q := range s.queues {
		b, d := q.RecvBatchStats()
		batches += b
		datagrams += d
	}
	return batches, datagrams
}

// SetTelemetry installs one recorder on every queue (events carry the
// same transport scope; per-queue attribution is in QueueRecvStats).
func (s *Sharded) SetTelemetry(rec *telemetry.Recorder) {
	for _, q := range s.queues {
		q.SetTelemetry(rec)
	}
}

// Close shuts every queue down, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, q := range s.queues {
		if err := q.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
