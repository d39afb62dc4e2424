package filter

import (
	"testing"

	"paccel/internal/header"
)

// FuzzAssemble feeds arbitrary text through the assembler: it must never
// panic, and anything it accepts must disassemble and reassemble to a
// program with identical behaviourally-relevant shape.
func FuzzAssemble(f *testing.F) {
	s := header.New()
	h1, _ := s.AddField(header.MsgSpec, "l", "len", 16, header.DontCare)
	h2, _ := s.AddField(header.ProtoSpec, "l", "seq", 32, header.DontCare)
	if err := s.Compile(); err != nil {
		f.Fatal(err)
	}
	_ = h1
	_ = h2
	resolve := SchemaResolver(s)
	f.Add("push.size\npop.field len\nreturn 0")
	f.Add("push.field seq\npush.const 3\nne\nabort 1")
	f.Add("; comment only")
	f.Add("digest inet16\npop.field len")
	f.Add("garbage op here")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src, resolve)
		if err != nil {
			return
		}
		p2, err := Assemble(p.Disassemble(), resolve)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, p.Disassemble())
		}
		if p2.Len() != p.Len() || p2.MaxStack() != p.MaxStack() {
			t.Fatalf("shape changed: %d/%d vs %d/%d",
				p.Len(), p.MaxStack(), p2.Len(), p2.MaxStack())
		}
	})
}

// FuzzRunNeverPanics executes accepted programs on arbitrary payloads and
// holds each run to checkRunProperties.
func FuzzRunNeverPanics(f *testing.F) {
	s := header.New()
	for _, name := range []string{"len", "ck"} {
		if _, err := s.AddField(header.MsgSpec, "l", name, 16, header.DontCare); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Compile(); err != nil {
		f.Fatal(err)
	}
	resolve := SchemaResolver(s)
	f.Add("push.size\npop.field len\ndigest inet16\npop.field ck", []byte("payload"))
	f.Add("push.field len\npush.size\nne\nabort -1", []byte{})
	f.Fuzz(func(t *testing.T, src string, payload []byte) {
		p, err := Assemble(src, resolve)
		if err != nil {
			return
		}
		checkRunProperties(t, p, s, payload)
	})
}
