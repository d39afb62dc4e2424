// Package filter implements the Protocol Accelerator's packet filters
// (paper §3.3, Table 2).
//
// A packet filter is a small stack-machine program, constructed at run
// time by the protocol layers themselves, that handles the
// message-specific header information the PA cannot predict. Unusually,
// filters run in both paths: the send filter *writes* header fields
// (lengths, checksums, timestamps) via POP_FIELD, and the delivery filter
// verifies them. Programs have no loops or calls, so they can be validated
// in advance and their exact stack need computed (§3.3).
//
// A program finishes with an integer status: StatusOK (0) lets the
// message proceed; any other status fails it — a send error on the send
// path, a drop on the delivery path (e.g. a checksum mismatch). §3.3's
// "non-zero value → execute the pre-processing phase" is not a filter's
// job here: the engine routes a message over the stack's declared frame
// limit to the layers before any filter runs, and runs the filter once
// on every frame of either path.
package filter

import "fmt"

// Op is a packet filter operation code (paper Table 2).
type Op uint8

// The operation set. PushConst..Abort are the paper's Table 2; Dup, Swap
// and Not are the "customized instructions" convenience ops.
const (
	// Nop does nothing; patched-out instructions become Nops.
	Nop Op = iota
	// PushConst pushes Arg onto the stack.
	PushConst
	// PushField pushes the value of Field.
	PushField
	// PushSize pushes the size of the message payload in bytes.
	PushSize
	// PushTime pushes the engine-supplied message timestamp (Env.Time).
	// It is one of the "customized instructions": the paper names
	// timestamps as message-specific information, which only a filter
	// can fill in.
	PushTime
	// Digest pushes a message digest of the payload, computed by the
	// registered digest function identified by Dig.
	Digest
	// PopField pops the top of stack into Field. This is the write
	// capability that makes send filters able to fill in headers.
	PopField
	// Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr pop two entries,
	// apply the operation (second-from-top OP top) and push the result.
	Add
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
	// Eq, Ne, Lt, Le, Gt, Ge pop two entries and push 1 if
	// (second-from-top CMP top), else 0. Comparisons are unsigned.
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	// Not pops the top entry and pushes its logical negation (1 if
	// zero, else 0).
	Not
	// Dup duplicates the top entry.
	Dup
	// Swap exchanges the top two entries.
	Swap
	// Return finishes the program with status Arg.
	Return
	// Abort pops the top entry; if it is non-zero the program finishes
	// with status Arg, otherwise execution continues.
	Abort
	// Seal invokes the environment's AEAD to encrypt the payload in
	// place and write the authentication tag into the message-specific
	// blob field identified by Field. A non-zero AEAD result finishes
	// the program with that status; a missing AEAD is a fault. Like
	// Digest, it is a "customized instruction" (§3.3): the tag is
	// message-specific information only a filter can fill in.
	Seal
	// Open is Seal's delivery-path dual: verify the tag in Field against
	// the payload and decrypt in place, finishing with the AEAD's status
	// when it is non-zero (conventionally StatusDrop on a forgery).
	Open
)

var opNames = map[Op]string{
	Nop: "nop", PushConst: "push.const", PushField: "push.field",
	PushSize: "push.size", PushTime: "push.time", Digest: "digest", PopField: "pop.field",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Not: "not", Dup: "dup", Swap: "swap",
	Return: "return", Abort: "abort",
	Seal: "seal", Open: "open",
}

// String returns the assembler mnemonic for the op.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// stackEffect returns (pops, pushes) for the op. Return and Abort are
// handled specially by validation.
func (o Op) stackEffect() (pops, pushes int) {
	switch o {
	case Nop:
		return 0, 0
	case PushConst, PushField, PushSize, PushTime, Digest:
		return 0, 1
	case PopField:
		return 1, 0
	case Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
		Eq, Ne, Lt, Le, Gt, Ge:
		return 2, 1
	case Not:
		return 1, 1
	case Dup:
		return 1, 2
	case Swap:
		return 2, 2
	case Return:
		return 0, 0
	case Abort:
		return 1, 0
	case Seal, Open:
		return 0, 0
	}
	return 0, 0
}

// binary reports whether the op is a two-operand arithmetic/comparison.
func (o Op) binary() bool {
	switch o {
	case Add, Sub, Mul, Div, Mod, And, Or, Xor, Shl, Shr,
		Eq, Ne, Lt, Le, Gt, Ge:
		return true
	}
	return false
}

// Result statuses. Any status other than StatusOK fails the message;
// layers may use distinct non-zero values to tag the reason.
const (
	// StatusOK lets the message proceed.
	StatusOK = 0
	// StatusDrop discards the message (on the send path, a send error).
	StatusDrop = -1
	// StatusFault is returned by the VM itself on a runtime fault
	// (division by zero). Treated like StatusDrop by the delivery path.
	StatusFault = -2
)
