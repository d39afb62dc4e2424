package filter

import (
	"paccel/internal/bits"
	"paccel/internal/header"
)

// AEAD is the engine-supplied authenticated-encryption surface behind the
// Seal and Open ops. Seal encrypts env.Payload in place and writes the
// auth tag into the blob field tag; Open verifies and decrypts. Both
// return a filter status: 0 continues execution, anything else finishes
// the program with that status.
type AEAD interface {
	Seal(env *Env, tag header.Handle) int
	Open(env *Env, tag header.Handle) int
}

// Env is the execution environment of a packet filter run: the four class
// header regions of the message being sent or delivered, the payload, and
// the byte order of the message's aligned fields.
type Env struct {
	Hdr     [header.NumClasses][]byte
	Payload []byte
	Order   bits.ByteOrder
	// Time is the engine-supplied timestamp pushed by the PushTime op,
	// conventionally microseconds on the connection's clock.
	Time uint64
	// AEAD backs the Seal/Open ops; programs containing them fault when
	// it is nil.
	AEAD AEAD
}

// hdr returns the class header region a field lives in.
func (e *Env) hdr(h header.Handle) []byte { return e.Hdr[h.Class()] }

// Run interprets the program against env and returns the final status.
// A program that falls off the end returns StatusOK; runtime faults
// (division or modulo by zero, shift ≥ 64) return StatusFault.
//
// Run is allocation-free for programs whose MaxStack is at most 16 —
// "typically just a few entries" (§3.3).
func (p *Program) Run(env *Env) int {
	var small [16]uint64
	var stack []uint64
	if p.maxStack <= len(small) {
		stack = small[:0]
	} else {
		stack = make([]uint64, 0, p.maxStack)
	}
	for i := range p.ins {
		in := &p.ins[i]
		switch in.Op {
		case Nop:
		case PushConst:
			stack = append(stack, uint64(in.Arg))
		case PushField:
			stack = append(stack, in.Field.Read(env.hdr(in.Field), env.Order))
		case PushSize:
			stack = append(stack, uint64(len(env.Payload)))
		case PushTime:
			stack = append(stack, env.Time)
		case Digest:
			stack = append(stack, in.digest(env.Payload))
		case PopField:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			in.Field.Write(env.hdr(in.Field), env.Order, v)
		case Not:
			if stack[len(stack)-1] == 0 {
				stack[len(stack)-1] = 1
			} else {
				stack[len(stack)-1] = 0
			}
		case Dup:
			stack = append(stack, stack[len(stack)-1])
		case Swap:
			n := len(stack)
			stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
		case Return:
			return int(in.Arg)
		case Abort:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v != 0 {
				return int(in.Arg)
			}
		case Seal:
			if env.AEAD == nil {
				return StatusFault
			}
			if s := env.AEAD.Seal(env, in.Field); s != 0 {
				return s
			}
		case Open:
			if env.AEAD == nil {
				return StatusFault
			}
			if s := env.AEAD.Open(env, in.Field); s != 0 {
				return s
			}
		default:
			a := stack[len(stack)-2]
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r, fault := binop(in.Op, a, b)
			if fault {
				return StatusFault
			}
			stack[len(stack)-1] = r
		}
	}
	return StatusOK
}

// binop applies a binary op to (a OP b). fault is true for division or
// modulo by zero and for shifts of 64 or more bits.
func binop(op Op, a, b uint64) (r uint64, fault bool) {
	switch op {
	case Add:
		return a + b, false
	case Sub:
		return a - b, false
	case Mul:
		return a * b, false
	case Div:
		if b == 0 {
			return 0, true
		}
		return a / b, false
	case Mod:
		if b == 0 {
			return 0, true
		}
		return a % b, false
	case And:
		return a & b, false
	case Or:
		return a | b, false
	case Xor:
		return a ^ b, false
	case Shl:
		if b >= 64 {
			return 0, true
		}
		return a << b, false
	case Shr:
		if b >= 64 {
			return 0, true
		}
		return a >> b, false
	case Eq:
		return b2u(a == b), false
	case Ne:
		return b2u(a != b), false
	case Lt:
		return b2u(a < b), false
	case Le:
		return b2u(a <= b), false
	case Gt:
		return b2u(a > b), false
	case Ge:
		return b2u(a >= b), false
	}
	return 0, true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
