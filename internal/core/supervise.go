package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"paccel/internal/telemetry"
)

// Connection supervision: the paper leaves connection lifecycle
// unspecified ("in our experiments no message loss was observed"), so
// this file adds the minimum a production endpoint needs — a terminal
// Failed state with a typed cause, dead-peer detection driven by traffic
// silence, and an endpoint Shutdown that drains the deferred work
// (post-processing, the packed backlog, the transmit queue) first.

// Supervision errors. ErrConnFailed wraps every failure cause, so
// errors.Is(err, ErrConnFailed) matches any failed connection and the
// specific cause (ErrPeerSilent, a heartbeat report, an application
// error) stays matchable through the wrap.
var (
	// ErrConnFailed reports operations on a connection in the Failed
	// state.
	ErrConnFailed = errors.New("core: connection failed")
	// ErrPeerSilent is the failure cause assigned by dead-peer
	// detection (Config.PeerTimeout).
	ErrPeerSilent = errors.New("core: peer silent")
)

// ConnState is a connection's lifecycle state.
type ConnState uint8

// Connection lifecycle. Active → Failed is driven by supervision or an
// explicit Fail; with Config.Recovery enabled the connection passes
// through Recovering first and only reaches Failed when the retry
// budget is exhausted (see recovery.go). All states reach Closed via
// Close. Failed is terminal short of Close: sends and deliveries are
// refused with the stored cause, but the connection keeps its routes
// and counters for inspection until the application closes it.
const (
	StateActive ConnState = iota
	StateFailed
	StateClosed
	StateRecovering
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	case StateRecovering:
		return "recovering"
	}
	return "?"
}

// State returns the connection's lifecycle state.
func (c *Conn) State() ConnState {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return StateClosed
	case c.failCause != nil:
		return StateFailed
	case c.recovering:
		return StateRecovering
	}
	return StateActive
}

// Err returns the failure cause once the connection is Failed, nil
// otherwise. The cause wraps ErrConnFailed.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failCause
}

// Fail reports the connection dead with the given cause. With recovery
// configured (Config.Recovery.MaxAttempts > 0) the connection enters
// the Recovering state and the redial engine takes over (recovery.go);
// a Fail on an already-recovering connection escalates straight to the
// terminal Failed state. Without recovery — or while the endpoint is
// shutting down — the connection moves to Failed directly: pending
// post-processing is run (layer state must settle before the layers
// shut down), layer timers are stopped, the backlog and queued
// deliveries are freed, and blocked senders are released with the
// stored error. Subsequent sends return the cause; late datagrams are
// dropped and counted. The connection keeps its routes until Close.
// Fail is idempotent and a no-op on a closed connection.
func (c *Conn) Fail(cause error) {
	if c.enter(gateLive) != nil {
		return
	}
	c.failOrRecoverLocked(cause)
	c.exit()
}

// failOrRecoverLocked is Fail between enter and exit.
func (c *Conn) failOrRecoverLocked(cause error) {
	// A Fail during recovery is an escalation, not a second trigger:
	// give up now.
	if !c.recovering && c.recoveryOn() && !c.ep.draining.Load() {
		c.enterRecoveryLocked(cause)
		return
	}
	c.failLocked(cause)
}

// failLocked moves the connection to the terminal Failed state, ending
// any recovery — a secure layer's nonce exhaustion comes here directly,
// since a resume would rekey and hide a guard that exists to refuse
// further traffic. Enter already ran the pending post-processing (layer
// state settles before the layers shut down); exit flushes what it
// queued and then runs OnConnFail. Returns the stored error.
func (c *Conn) failLocked(cause error) error {
	if cause == nil {
		c.failCause = ErrConnFailed
	} else {
		c.failCause = fmt.Errorf("%w: %w", ErrConnFailed, cause)
	}
	c.tel.Event(telemetry.EventState, c.outCookie, c.failCause.Error())
	c.teardownLocked()
	err := c.failCause
	if cb := c.ep.cfg.OnConnFail; cb != nil {
		c.notify = append(c.notify, func() { cb(c, err) })
	}
	return err
}

// startSupervision arms dead-peer detection when Config.PeerTimeout is
// set. The timer fires every PeerTimeout and compares the delivery
// activity counter against the previous tick: a full interval with no
// incoming traffic fails the connection with ErrPeerSilent, so detection
// latency is between one and two intervals.
func (c *Conn) startSupervision() {
	if c.ep.cfg.PeerTimeout <= 0 {
		return
	}
	c.mu.Lock()
	c.startSupervisionLocked()
	c.mu.Unlock()
}

// startSupervisionLocked arms the dead-peer timer; caller holds c.mu.
// Recovery completion restarts supervision through this path.
func (c *Conn) startSupervisionLocked() {
	if c.ep.cfg.PeerTimeout <= 0 {
		return
	}
	c.superSeen = c.recvActivity
	c.superTimer = c.ep.cfg.clock().AfterFunc(c.ep.cfg.PeerTimeout, c.superviseTick)
}

func (c *Conn) superviseTick() {
	if c.enter(gateLive) != nil {
		return
	}
	if c.recvActivity == c.superSeen {
		c.superTimer = nil
		c.failOrRecoverLocked(fmt.Errorf("%w: no traffic for at least %v", ErrPeerSilent, c.ep.cfg.PeerTimeout))
	} else {
		c.superSeen = c.recvActivity
		c.superTimer = c.ep.cfg.clock().AfterFunc(c.ep.cfg.PeerTimeout, c.superviseTick)
	}
	c.exit()
}

// stopSupervision cancels the dead-peer timer. Caller holds c.mu.
func (c *Conn) stopSupervision() {
	if c.superTimer != nil {
		c.superTimer.Stop()
		c.superTimer = nil
	}
}

// drained reports whether the connection holds no deferred work: no
// pending post-processing on either side, no packed backlog, no queued
// deliveries or application callbacks, and no un-flushed transmissions.
func (c *Conn) drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.send.pendingLen() == 0 && c.recv.pendingLen() == 0 &&
		len(c.send.backlog) == 0 && len(c.deliverQ) == 0 &&
		len(c.appQ) == 0 && c.txPending.Load() == 0
}

// Shutdown drains the endpoint before closing it. New sends are refused
// (ErrConnClosed) from the moment Shutdown is called; receives continue,
// so peers' acknowledgements can still open the window for backlogged
// messages. Every connection's deferred post-processing, packed backlog,
// and transmit queue are run to completion, and only then are the
// connections and the transport closed — the post-processing
// guarantee (§3.1) holds through termination. If ctx expires first the
// endpoint is closed anyway (without the drain guarantee) and ctx.Err()
// is returned.
func (ep *Endpoint) Shutdown(ctx context.Context) error {
	if ep.closed.Load() {
		return nil
	}
	ep.draining.Store(true)
	for {
		ep.routeMu.Lock()
		conns := make([]*Conn, 0, len(ep.conns))
		for c := range ep.conns {
			conns = append(conns, c)
		}
		ep.routeMu.Unlock()
		dirty := false
		for _, c := range conns {
			c.Flush()
			if !c.drained() {
				dirty = true
			}
		}
		if !dirty {
			break
		}
		select {
		case <-ctx.Done():
			ep.Close()
			return ctx.Err()
		default:
		}
		// Deferred work that Flush cannot finish needs the peer (window
		// acknowledgements for the backlog); poll briefly.
		time.Sleep(50 * time.Microsecond)
	}
	return ep.Close()
}
