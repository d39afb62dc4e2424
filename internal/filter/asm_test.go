package filter

// The assembler is the inverse of Program.Disassemble. Only tests build
// programs from listings (the fuzz corpus, the disassembly round trips),
// so it lives with them.

import (
	"fmt"
	"strconv"
	"strings"

	"paccel/internal/header"
)

// FieldResolver maps an assembler field name (e.g. "seq" or "chksum/ck")
// to a header handle.
type FieldResolver func(name string) (header.Handle, bool)

// SchemaResolver returns a FieldResolver over a compiled schema: "name"
// matches the first field with that name in registration order;
// "layer/name" matches exactly.
func SchemaResolver(s *header.Schema) FieldResolver {
	return func(name string) (header.Handle, bool) {
		layer := ""
		if i := strings.IndexByte(name, '/'); i >= 0 {
			layer, name = name[:i], name[i+1:]
		}
		for _, h := range s.Fields() {
			if h.Name() != name {
				continue
			}
			if layer == "" || h.Layer() == layer {
				return h, true
			}
		}
		return header.Handle{}, false
	}
}

var nameOps = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// Assemble parses an assembler listing into a validated Program. Each line
// holds one instruction; ';' and '#' start comments; blank lines are
// ignored.
func Assemble(src string, resolve FieldResolver) (*Program, error) {
	b := NewBuilder()
	for lineno, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// Tolerate a leading numeric label, as printed by Disassemble.
		if len(fields) > 1 {
			if _, err := strconv.Atoi(fields[0]); err == nil {
				fields = fields[1:]
			}
		}
		op, ok := nameOps[fields[0]]
		if !ok {
			return nil, fmt.Errorf("filter: line %d: unknown op %q", lineno+1, fields[0])
		}
		arg := func() (string, error) {
			if len(fields) != 2 {
				return "", fmt.Errorf("filter: line %d: %s needs exactly one argument", lineno+1, fields[0])
			}
			return fields[1], nil
		}
		noArg := func() error {
			if len(fields) != 1 {
				return fmt.Errorf("filter: line %d: %s takes no argument", lineno+1, fields[0])
			}
			return nil
		}
		switch op {
		case PushConst, Return, Abort:
			a, err := arg()
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseInt(a, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("filter: line %d: bad integer %q", lineno+1, a)
			}
			switch op {
			case PushConst:
				b.PushConst(v)
			case Return:
				b.Return(v)
			case Abort:
				b.Abort(v)
			}
		case PushField, PopField, Seal, Open:
			a, err := arg()
			if err != nil {
				return nil, err
			}
			h, ok := resolve(a)
			if !ok {
				return nil, fmt.Errorf("filter: line %d: unknown field %q", lineno+1, a)
			}
			switch op {
			case PushField:
				b.PushField(h)
			case PopField:
				b.PopField(h)
			case Seal:
				b.Seal(h)
			case Open:
				b.Open(h)
			}
		case Digest:
			a, err := arg()
			if err != nil {
				return nil, err
			}
			id, ok := LookupDigest(a)
			if !ok {
				return nil, fmt.Errorf("filter: line %d: unknown digest %q", lineno+1, a)
			}
			b.Digest(id)
		default:
			if err := noArg(); err != nil {
				return nil, err
			}
			switch op {
			case PushSize:
				b.PushSize()
			case PushTime:
				b.PushTime()
			default:
				b.Arith(op)
			}
		}
	}
	return b.Build()
}
