package core

import (
	"fmt"
	"math/rand"
	"time"

	"paccel/internal/stack"
	"paccel/internal/telemetry"
)

// Connection recovery: the redial engine that turns Failed from a
// terminal state into a recoverable one. A connection whose supervision
// (or an explicit Fail) declares it dead enters Recovering instead of
// Failed when Config.Recovery enables it, and probes the peer on an
// exponential-backoff schedule with full jitter. Each probe reuses the
// first-message Connection-Identification path (§2.2): it travels with
// the identification attached, so the peer can re-learn our cookie even
// if its router evicted it, and the window layer replays its unacked
// frames the same way — the receiver's sequence space dedupes them, so
// nothing acknowledged or buffered is lost or duplicated across the
// failover. Any datagram that passes the receive filter completes the
// recovery; an exhausted retry budget lands the connection in Failed
// with ErrRecoveryExhausted.

// ErrRecoveryExhausted is the failure cause of a connection whose
// recovery retry budget (Config.Recovery.MaxAttempts) ran out. It is
// wrapped by ErrConnFailed like every other cause, and itself wraps the
// original failure, so errors.Is matches all three.
var ErrRecoveryExhausted = fmt.Errorf("core: recovery attempts exhausted")

// Recovery backoff defaults.
const (
	defaultRecoveryBaseDelay = 50 * time.Millisecond
	defaultRecoverySeed      = 1996
	// recoveryMaxShift caps the backoff doubling so BaseDelay<<k cannot
	// overflow a time.Duration.
	recoveryMaxShift = 20
)

// RecoveryConfig configures the redial engine (Config.Recovery).
// Recovery is enabled when MaxAttempts > 0; the zero value keeps the
// PR 2 behaviour where failure is terminal.
type RecoveryConfig struct {
	// MaxAttempts is the retry budget: the number of probe rounds
	// before the engine gives up and the connection fails for good
	// with ErrRecoveryExhausted. 0 disables recovery entirely.
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first attempt; the
	// ceiling doubles every attempt. The actual delay before attempt k
	// is drawn uniformly from [0, min(MaxDelay, BaseDelay<<k)) — "full
	// jitter", so a thousand connections cut by the same partition do
	// not probe in lockstep when it heals. 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. 0 means 32×BaseDelay.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for replayable tests; each
	// connection mixes in its dial order so two connections with the
	// same seed still desynchronize. 0 means a fixed default.
	Seed int64
	// OnRecover observes every completed recovery: the cause that
	// started it and how many probe rounds it took. Runs without the
	// connection lock, so it may use the Conn API.
	OnRecover func(c *Conn, cause error, attempts int)
	// OnGiveUp observes a connection whose retry budget ran out, with
	// the final error (ErrConnFailed wrapping ErrRecoveryExhausted
	// wrapping the original cause). It runs without the connection
	// lock, before OnConnFail fires for the terminal failure.
	OnGiveUp func(c *Conn, err error)
}

// recoveryOn reports whether the redial engine is configured.
func (c *Conn) recoveryOn() bool { return c.ep.cfg.Recovery.MaxAttempts > 0 }

// enterRecoveryLocked moves the connection from Active to Recovering:
// supervision stops (its silence signal is what got us here), application
// sends divert to the backlog under the usual backpressure bounds, and
// the first probe is armed. Caller is between enter and exit.
func (c *Conn) enterRecoveryLocked(cause error) {
	if cause == nil {
		cause = ErrConnFailed
	}
	c.recovering = true
	c.recoverCause = cause
	c.recoverAttempt = 0
	c.stats.Recoveries++
	c.tel.Event(telemetry.EventState, c.outCookie, "recovering: "+cause.Error())
	c.stopSupervision()
	if !c.recoverHold {
		c.recoverHold = true
		c.send.disable++
	}
	c.armRecoveryLocked()
}

// armRecoveryLocked schedules the next probe with full-jitter backoff.
// Caller holds c.mu.
func (c *Conn) armRecoveryLocked() {
	d := c.recoveryDelay(c.recoverAttempt)
	c.recoverTimer = c.ep.cfg.clock().AfterFunc(d, c.recoverTick)
}

// recoveryDelay draws the delay before probe round k (0-based):
// uniform over [0, min(MaxDelay, BaseDelay<<k)).
func (c *Conn) recoveryDelay(k int) time.Duration {
	r := &c.ep.cfg.Recovery
	base := r.BaseDelay
	if base <= 0 {
		base = defaultRecoveryBaseDelay
	}
	maxD := r.MaxDelay
	if maxD <= 0 {
		maxD = 32 * base
	}
	if k > recoveryMaxShift {
		k = recoveryMaxShift
	}
	ceil := base << uint(k)
	if ceil <= 0 || ceil > maxD {
		ceil = maxD
	}
	return time.Duration(c.recoverRng.Int63n(int64(ceil)))
}

// recoverTick is one probe round. A recovering connection is live (its
// failCause stays nil), so the probe timer enters like any other.
func (c *Conn) recoverTick() {
	if c.enter(gateLive) != nil {
		return
	}
	defer c.exit()
	if !c.recovering {
		return
	}
	c.recoverTimer = nil
	r := &c.ep.cfg.Recovery
	if c.recoverAttempt >= r.MaxAttempts {
		var err error
		if cb := r.OnGiveUp; cb != nil {
			// Queued ahead of failLocked's OnConnFail; err is set before
			// exit runs either.
			c.notify = append(c.notify, func() { cb(c, err) })
		}
		err = c.failLocked(fmt.Errorf("%w after %d attempts: %w",
			ErrRecoveryExhausted, c.recoverAttempt, c.recoverCause))
		return
	}
	c.recoverAttempt++
	c.stats.RecoveryProbes++
	c.tel.Event(telemetry.EventResume, c.outCookie, "resume probe")
	t0 := c.telStartAlways()
	c.resumeProbeLocked()
	c.settle()
	c.telEnd(telemetry.OpProbe, t0)
	c.armRecoveryLocked()
}

// resumeProbeLocked runs the session-resumption handshake: every
// resumable layer re-sends what the peer needs (the window layer sends
// an identified probe and replays unacked frames). The next ordinary
// message is marked to carry the connection identification too, so a
// stack with no resumable layer still re-identifies — the first-message
// path of §2.2 is the resume path. Caller holds c.mu.
func (c *Conn) resumeProbeLocked() {
	c.needConnID = true
	for _, l := range c.st.Layers() {
		if r, ok := l.(stack.Resumer); ok {
			r.Resume()
		}
	}
}

// cancelRecoveryLocked clears the recovering state: timer stopped, the
// send hold released (the backlog is kicked by the caller's settle, or
// freed by a terminal failLocked). Idempotent. Caller holds c.mu.
func (c *Conn) cancelRecoveryLocked() {
	c.recovering = false
	c.recoverCause = nil
	if c.recoverTimer != nil {
		c.recoverTimer.Stop()
		c.recoverTimer = nil
	}
	if c.recoverHold {
		c.recoverHold = false
		if c.send.disable > 0 {
			c.send.disable--
		}
	}
}

// finishRecoveryLocked completes a recovery — the peer was heard from
// again. Supervision restarts, the backlog accumulated while recovering
// drains on the caller's settle pass, and OnRecover is queued for exit.
// Caller is between enter and exit.
func (c *Conn) finishRecoveryLocked() {
	cause := c.recoverCause
	attempts := c.recoverAttempt
	c.cancelRecoveryLocked()
	c.stats.Recovered++
	c.tel.Event(telemetry.EventState, c.outCookie, "active (recovered)")
	c.startSupervisionLocked()
	if cb := c.ep.cfg.Recovery.OnRecover; cb != nil {
		c.notify = append(c.notify, func() { cb(c, cause, attempts) })
	}
}

// newRecoveryRng seeds a connection's jitter source: the configured
// seed (reproducible schedules) mixed with the connection's dial order
// (two connections sharing a seed still desynchronize).
func newRecoveryRng(ep *Endpoint, connSeq uint64) *rand.Rand {
	seed := ep.cfg.Recovery.Seed
	if seed == 0 {
		seed = defaultRecoverySeed
	}
	seed += int64(connSeq * 0x9E3779B97F4A7C15)
	return rand.New(rand.NewSource(seed))
}
