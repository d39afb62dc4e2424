package core

import (
	"errors"
	"fmt"

	"paccel/internal/filter"
	"paccel/internal/header"
	"paccel/internal/layers"
	"paccel/internal/stack"
)

// plan is everything about a connection that depends only on the shape of
// its stack — which layers, registering which fields and emitting which
// filter instructions — and not on the peer: the compiled header schema,
// the two packet filter programs, the four class header sizes, whether
// the filters read the clock, the largest payload a frame may carry and
// where the identification layer sits. The paper does this work when a
// stack is built (§2.1, §3.3); an endpoint does it once and every
// connection of that shape shares the result (Endpoint.plan and
// Conn.plan). It is the one place core learns what a stack's layers
// declare, so no copy of a layer fact can drift from the layer. A plan is
// immutable: nothing writes to it, its schema or its programs after
// compilePlan returns.
type plan struct {
	schema     *header.Schema
	send, recv *filter.Program
	size       [header.NumClasses]int
	usesTime   bool
	// maxPayload bounds one frame's payload: the limit a layer declared
	// at Init (stack.InitContext.MaxPayload — the fragmentation
	// threshold), else layers.DefaultFragThreshold. A longer message
	// goes to the layers before any filter runs (sendMsg). A packed
	// message must stay under it, or the fragmenter would split it and
	// reassembly would lose the packing structure (§3.4).
	maxPayload int
	// identIdx is the identification layer's stack index; delivery
	// verdicts issued above it (at < identIdx) passed identification,
	// the safety gate for address migration.
	identIdx int
}

// compilePlan builds the stack for spec and compiles its shape — the one
// compile path, run for the endpoint's first plan and again by a dial
// whose stack turns out to have another shape. It returns the plan and
// the initialized stack it was compiled from, whose layers hold handles
// into the plan's schema.
func (ep *Endpoint) compilePlan(spec PeerSpec) (*plan, *stack.Stack, error) {
	st, err := ep.buildStack(spec)
	if err != nil {
		return nil, nil, err
	}
	p := &plan{schema: header.New(), identIdx: -1}
	for i := range st.Layers() {
		if identifier(st, i) != nil {
			p.identIdx = i
		}
	}
	if p.identIdx < 0 {
		return nil, nil, errors.New("core: stack has no identification layer")
	}
	sb, rb := filter.NewBuilder(), filter.NewBuilder()
	ic := &stack.InitContext{Schema: p.schema, SendFilter: sb, RecvFilter: rb}
	if err := st.Init(ic); err != nil {
		return nil, nil, err
	}
	p.maxPayload = resolveMaxPayload(ic.MaxPayload)
	if err := p.schema.Compile(); err != nil {
		return nil, nil, err
	}
	if p.send, err = sb.Build(); err != nil {
		return nil, nil, fmt.Errorf("core: send filter: %w", err)
	}
	if p.recv, err = rb.Build(); err != nil {
		return nil, nil, fmt.Errorf("core: recv filter: %w", err)
	}
	for cl := range p.size {
		p.size[cl] = p.schema.Size(header.Class(cl))
	}
	p.usesTime = p.send.UsesTime() || p.recv.UsesTime()
	return p, st, nil
}

// resolveMaxPayload is the frame limit a stack declared, or the default
// fragmentation threshold when no layer declared one.
func resolveMaxPayload(declared int) int {
	if declared <= 0 {
		return layers.DefaultFragThreshold
	}
	return declared
}

// identifier returns st's layer i if it is an identification layer, else
// nil — the one place core looks for the Identifier interface.
func identifier(st *stack.Stack, i int) Identifier {
	ls := st.Layers()
	if i < 0 || i >= len(ls) {
		return nil
	}
	id, _ := ls[i].(Identifier)
	return id
}

// buildStack runs the endpoint's StackBuilder for spec.
func (ep *Endpoint) buildStack(spec PeerSpec) (*stack.Stack, error) {
	ls, err := ep.cfg.build()(spec, ep.cfg.Order)
	if err != nil {
		return nil, err
	}
	return stack.NewStack(ls...)
}

// replay initializes st against the plan instead of compiling it: the
// layers' Init runs as always, but the schema it registers into is a
// replay view that hands back the plan's handles, and the filter builders
// only verify that the emitted instructions are the plan's programs. It
// reports an error if st is not of the plan's shape in any respect — a
// field, a constant, a longer or shorter stream, the declared frame limit,
// the identification layer's place — in which case the layers are
// half-initialized and must be discarded.
func (p *plan) replay(st *stack.Stack) error {
	if identifier(st, p.identIdx) == nil {
		return errors.New("core: identification layer not where the plan has it")
	}
	view := p.schema.Replay()
	sb, rb := p.send.Verifier(), p.recv.Verifier()
	ic := &stack.InitContext{Schema: view, SendFilter: sb, RecvFilter: rb}
	if err := st.Init(ic); err != nil {
		return err
	}
	if resolveMaxPayload(ic.MaxPayload) != p.maxPayload {
		return errors.New("core: frame limit differs from the plan's")
	}
	if err := view.Replayed(); err != nil {
		return err
	}
	if _, err := sb.Build(); err != nil {
		return err
	}
	_, err := rb.Build()
	return err
}

// stackFor returns an initialized stack for spec and the plan it follows.
// Normally that is the endpoint's current plan, replayed; a stack of
// another shape (Config.Build may return anything) is built afresh and
// compiled, and its plan becomes the endpoint's, so an endpoint that
// alternates shapes compiles on every dial — what every dial used to cost
// — and is still correct.
func (ep *Endpoint) stackFor(spec PeerSpec) (*plan, *stack.Stack, error) {
	st, err := ep.buildStack(spec)
	if err != nil {
		return nil, nil, err
	}
	p := ep.plan.Load()
	if p.replay(st) == nil {
		return p, st, nil
	}
	p, st, err = ep.compilePlan(spec)
	if err != nil {
		return nil, nil, err
	}
	ep.plan.Store(p)
	return p, st, nil
}
