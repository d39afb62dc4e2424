package filter

import (
	"fmt"
	"strings"

	"paccel/internal/header"
)

// Instr is one packet filter instruction.
type Instr struct {
	Op    Op
	Dig   DigestID      // Digest function; shares a word with Op
	Arg   int64         // PushConst value; Return/Abort status
	Field header.Handle // PushField / PopField target

	// digest is Dig's function, resolved once by Build so that Run does
	// not consult the process-wide registry per message.
	digest DigestFunc
}

// String renders the instruction in assembler syntax.
func (in Instr) String() string {
	switch in.Op {
	case PushConst, Return, Abort:
		return fmt.Sprintf("%s %d", in.Op, in.Arg)
	case PushField, PopField, Seal, Open:
		return fmt.Sprintf("%s %s", in.Op, in.Field.Name())
	case Digest:
		return fmt.Sprintf("%s %s", in.Op, DigestName(in.Dig))
	}
	return in.Op.String()
}

// Program is a validated packet filter program. It is immutable after
// Build — nothing in the package writes to one — so a single Program may
// be shared by any number of connections and run concurrently, each run
// with its own Env.
type Program struct {
	ins      []Instr
	maxStack int
}

// Instructions returns a copy of the program's instructions.
func (p *Program) Instructions() []Instr { return append([]Instr(nil), p.ins...) }

// MaxStack returns the statically computed stack requirement.
func (p *Program) MaxStack() int { return p.maxStack }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.ins) }

// UsesTime reports whether the program contains a PushTime instruction.
// The engine uses it to skip the per-message clock read when nothing in
// the connection's filters consumes the timestamp; layers that read
// Env.Time outside the filters (like the stamp layer's post hooks) must
// emit PushTime so the engine keeps supplying it.
func (p *Program) UsesTime() bool {
	for i := range p.ins {
		if p.ins[i].Op == PushTime {
			return true
		}
	}
	return false
}

// Disassemble renders the whole program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.ins {
		fmt.Fprintf(&b, "%3d  %s\n", i, in.String())
	}
	return b.String()
}

// Builder accumulates instructions for a packet filter. Each protocol
// layer appends the instructions for its own message-specific fields
// during stack initialization; Build validates the combined program.
type Builder struct {
	ins []Instr
	err error

	// A verifying builder (Verifier) keeps no instructions: it counts the
	// emits in n and compares each with want's instruction at that index.
	want *Program
	n    int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Verifier returns a verifying builder for p: every emit is compared — op,
// digest id, argument, field handle — with p's instruction at the same
// index instead of being stored, and Build returns p itself if the emitted
// stream was p's, instruction for instruction, and an error otherwise. A
// stack whose layers emit the program an earlier stack of the same shape
// compiled thereby shares that program instead of building its own.
func (p *Program) Verifier() *Builder { return &Builder{want: p} }

// Len returns the number of instructions emitted so far; layers use it to
// remember instruction indices.
func (b *Builder) Len() int {
	if b.want != nil {
		return b.n
	}
	return len(b.ins)
}

func (b *Builder) emit(in Instr) int {
	if b.want != nil {
		return b.verify(in)
	}
	b.ins = append(b.ins, in)
	return len(b.ins) - 1
}

// verify compares one emit with the verified program's next instruction.
func (b *Builder) verify(in Instr) int {
	i := b.n
	b.n++
	if b.err != nil {
		return i
	}
	if i >= len(b.want.ins) {
		b.err = fmt.Errorf("filter: verify: instruction %d (%s) is past the end of the program (%d instructions)",
			i, in, len(b.want.ins))
		return i
	}
	// Only the four emitted fields: the bound digest function is Build's.
	if w := &b.want.ins[i]; in.Op != w.Op || in.Dig != w.Dig || in.Arg != w.Arg || in.Field != w.Field {
		b.err = fmt.Errorf("filter: verify: instruction %d is %q, program has %q", i, in, *w)
	}
	return i
}

// PushConst emits a push of constant v and returns the instruction index.
func (b *Builder) PushConst(v int64) int { return b.emit(Instr{Op: PushConst, Arg: v}) }

// PushField emits a push of field h.
func (b *Builder) PushField(h header.Handle) int {
	if !h.Valid() {
		b.fail("PushField with invalid handle")
	}
	return b.emit(Instr{Op: PushField, Field: h})
}

// PushSize emits a push of the payload size.
func (b *Builder) PushSize() int { return b.emit(Instr{Op: PushSize}) }

// PushTime emits a push of the engine-supplied message timestamp.
func (b *Builder) PushTime() int { return b.emit(Instr{Op: PushTime}) }

// Digest emits a digest push.
func (b *Builder) Digest(id DigestID) int { return b.emit(Instr{Op: Digest, Dig: id}) }

// PopField emits a pop into field h.
func (b *Builder) PopField(h header.Handle) int {
	if !h.Valid() {
		b.fail("PopField with invalid handle")
	}
	return b.emit(Instr{Op: PopField, Field: h})
}

// Seal emits an AEAD seal: encrypt the payload in place, auth tag into
// blob field h.
func (b *Builder) Seal(h header.Handle) int {
	if !h.Valid() {
		b.fail("Seal with invalid handle")
	}
	return b.emit(Instr{Op: Seal, Field: h})
}

// Open emits an AEAD open: verify the tag in blob field h and decrypt the
// payload in place.
func (b *Builder) Open(h header.Handle) int {
	if !h.Valid() {
		b.fail("Open with invalid handle")
	}
	return b.emit(Instr{Op: Open, Field: h})
}

// Arith emits a binary arithmetic/comparison/stack op or Not/Dup/Swap.
func (b *Builder) Arith(op Op) int {
	switch {
	case op.binary(), op == Not, op == Dup, op == Swap, op == Nop:
	default:
		b.fail(fmt.Sprintf("Arith with non-arithmetic op %s", op))
	}
	return b.emit(Instr{Op: op})
}

// Return emits a terminal return of status v.
func (b *Builder) Return(v int64) int { return b.emit(Instr{Op: Return, Arg: v}) }

// Abort emits a conditional return: pops the top entry and finishes with
// status v if it was non-zero.
func (b *Builder) Abort(v int64) int { return b.emit(Instr{Op: Abort, Arg: v}) }

func (b *Builder) fail(msg string) {
	if b.err == nil {
		b.err = fmt.Errorf("filter: %s", msg)
	}
}

// Build validates the program and returns it. Validation checks that the
// stack never underflows, that every digest id is registered (binding the
// function registered at this moment into the program), and computes the
// maximum stack depth (possible because programs have no loops, §3.3).
// A program that falls off the end returns StatusOK.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.want != nil {
		if b.n != len(b.want.ins) {
			return nil, fmt.Errorf("filter: verify: %d instructions emitted, program has %d", b.n, len(b.want.ins))
		}
		return b.want, nil
	}
	ins := append([]Instr(nil), b.ins...)
	depth, maxDepth := 0, 0
	for i := range ins {
		in := &ins[i]
		pops, pushes := in.Op.stackEffect()
		if _, known := opNames[in.Op]; !known {
			return nil, fmt.Errorf("filter: instruction %d: unknown op %d", i, uint8(in.Op))
		}
		if in.Op == Digest {
			fn, ok := DigestByID(in.Dig)
			if !ok {
				return nil, fmt.Errorf("filter: instruction %d: unregistered digest %d", i, in.Dig)
			}
			in.digest = fn
		}
		if (in.Op == PushField || in.Op == PopField || in.Op == Seal || in.Op == Open) && !in.Field.Valid() {
			return nil, fmt.Errorf("filter: instruction %d: invalid field handle", i)
		}
		if depth < pops {
			return nil, fmt.Errorf("filter: instruction %d (%s): stack underflow (depth %d, needs %d)",
				i, in.Op, depth, pops)
		}
		depth += pushes - pops
		if depth > maxDepth {
			maxDepth = depth
		}
		if in.Op == Return && i < len(ins)-1 {
			return nil, fmt.Errorf("filter: instruction %d: unreachable code after return", i)
		}
	}
	return &Program{ins: ins, maxStack: maxDepth}, nil
}

// MustBuild is Build that panics on error, for statically correct
// programs in tests and examples.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
