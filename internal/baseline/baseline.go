// Package baseline implements the traditional layered protocol execution
// the paper compares the Protocol Accelerator against (the "original
// Horus" C path, ~1.5 ms round trip vs the PA's 170 µs).
//
// It runs the *same* layer implementations as the PA engine, but the
// classical way:
//
//   - the header layout is per-layer: each layer's fields are grouped in
//     its own block, C-struct aligned, every block padded to a 4-byte
//     boundary (§2.1);
//   - the full connection identification travels on *every* message — no
//     preamble, no cookies;
//   - every send and every delivery runs pre- AND post-processing of all
//     layers synchronously on the critical path — no prediction, no lazy
//     post-processing, no packing;
//   - the layers' packet filters, their only code for message-specific
//     fields, run once per frame here too: the send filter after the
//     send pre-phases, the delivery filter before the delivery ones.
//     Nothing supplies them an AEAD, so a stack with the encryption
//     layer fails every send;
//   - headers are always big-endian ("network byte order"), the
//     traditional convention.
//
// The contrast between this engine and package core is the paper's
// headline experiment.
package baseline

import (
	"errors"
	"fmt"
	"sync"

	"paccel/internal/bits"
	"paccel/internal/core"
	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/stack"
	"paccel/internal/vclock"
)

// Errors returned by baseline operations.
var (
	ErrConnClosed = errors.New("baseline: connection closed")
	ErrSendFailed = errors.New("baseline: send rejected")
)

// Config configures a baseline endpoint. The same StackBuilder used with
// the PA engine works here.
type Config struct {
	Transport core.Transport
	Clock     vclock.Clock
	Build     core.StackBuilder
	// Accept and OnConn mirror core.Config.
	Accept func(remote layers.IdentInfo, netSrc string) (core.PeerSpec, bool)
	OnConn func(*Conn)
	// MaxBacklog bounds sends buffered while the window is closed.
	MaxBacklog int
}

func (c *Config) clock() vclock.Clock {
	if c.Clock == nil {
		return vclock.Real{}
	}
	return c.Clock
}

func (c *Config) build() core.StackBuilder {
	if c.Build == nil {
		return core.DefaultStack
	}
	return c.Build
}

func (c *Config) maxBacklog() int {
	if c.MaxBacklog <= 0 {
		return 1024
	}
	return c.MaxBacklog
}

// Stats counts baseline connection events.
type Stats struct {
	Sent, Delivered, Dropped, Consumed uint64
	Backlogged, ControlMsgs            uint64
	Retransmits                        uint64
	HeaderBytes                        uint64 // header bytes transmitted
}

// Endpoint routes datagrams to baseline connections by the connection
// identification carried on every message.
type Endpoint struct {
	cfg Config

	mu      sync.Mutex
	conns   map[string]*Conn // keyed by canonical remote identity
	all     []*Conn
	closed  bool
	tmpl    core.Identifier
	schema  *header.Schema // template schema (layered)
	hdrSize int
}

// NewEndpoint attaches a baseline endpoint to the transport.
func NewEndpoint(cfg Config) (*Endpoint, error) {
	if cfg.Transport == nil {
		return nil, errors.New("baseline: Config.Transport is required")
	}
	ep := &Endpoint{cfg: cfg, conns: make(map[string]*Conn)}
	if err := ep.initTemplate(); err != nil {
		return nil, err
	}
	cfg.Transport.SetHandler(ep.onRecv)
	return ep, nil
}

func (ep *Endpoint) initTemplate() error {
	ls, err := ep.cfg.build()(core.PeerSpec{}, bits.BigEndian)
	if err != nil {
		return err
	}
	st, err := stack.NewStack(ls...)
	if err != nil {
		return err
	}
	schema := header.New()
	ic := &stack.InitContext{
		Schema:     schema,
		SendFilter: filter.NewBuilder(),
		RecvFilter: filter.NewBuilder(),
	}
	if err := st.Init(ic); err != nil {
		return err
	}
	if err := schema.CompileLayered(); err != nil {
		return err
	}
	for _, l := range ls {
		if id, ok := l.(core.Identifier); ok {
			ep.tmpl = id
		}
	}
	if ep.tmpl == nil {
		return errors.New("baseline: stack has no identification layer")
	}
	ep.schema = schema
	ep.hdrSize = schema.TotalSize()
	return nil
}

// HeaderSize returns the per-message header size of the layered format —
// the overhead the PA eliminates.
func (ep *Endpoint) HeaderSize() int { return ep.hdrSize }

// Schema returns the layered template schema (for reports).
func (ep *Endpoint) Schema() *header.Schema { return ep.schema }

// Dial creates a baseline connection.
func (ep *Endpoint) Dial(spec core.PeerSpec) (*Conn, error) {
	c, err := newConn(ep, spec)
	if err != nil {
		return nil, err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil, ErrConnClosed
	}
	ep.conns[c.remoteKey] = c
	ep.all = append(ep.all, c)
	return c, nil
}

// Close closes all connections and the transport.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := append([]*Conn(nil), ep.all...)
	ep.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return ep.cfg.Transport.Close()
}

// onRecv routes by parsing the identification out of the header — the
// connection lookup cost the PA's cookies avoid (§2.2).
func (ep *Endpoint) onRecv(src string, datagram []byte) {
	if len(datagram) < ep.hdrSize {
		return
	}
	info := ep.tmpl.ParseIncoming(datagram[:ep.hdrSize], bits.BigEndian)
	key := identKey(info.Src, info.Dst, info.SrcPort, info.DstPort, info.Epoch)
	ep.mu.Lock()
	c := ep.conns[key]
	accept := ep.cfg.Accept
	onConn := ep.cfg.OnConn
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return
	}
	if c == nil {
		if accept == nil {
			return
		}
		spec, ok := accept(info, src)
		if !ok {
			return
		}
		nc, err := ep.Dial(spec)
		if err != nil {
			return
		}
		if onConn != nil {
			onConn(nc)
		}
		c = nc
	}
	c.deliverIncoming(datagram)
}

func identKey(src, dst []byte, sport, dport uint16, epoch uint32) string {
	return fmt.Sprintf("%x|%x|%d|%d|%d", src, dst, sport, dport, epoch)
}
