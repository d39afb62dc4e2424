package filter

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"paccel/internal/bits"
	"paccel/internal/header"
)

// testSchema builds a small compiled schema resembling the chksum layer's
// fields: a 16-bit length and 16-bit checksum (message-specific) plus a
// 32-bit sequence number (protocol-specific).
func testSchema(t testing.TB) (s *header.Schema, length, cksum, seq header.Handle) {
	t.Helper()
	s = header.New()
	var err error
	if length, err = s.AddField(header.MsgSpec, "chksum", "len", 16, header.DontCare); err != nil {
		t.Fatal(err)
	}
	if cksum, err = s.AddField(header.MsgSpec, "chksum", "ck", 16, header.DontCare); err != nil {
		t.Fatal(err)
	}
	if seq, err = s.AddField(header.ProtoSpec, "seqno", "seq", 32, header.DontCare); err != nil {
		t.Fatal(err)
	}
	if err = s.Compile(); err != nil {
		t.Fatal(err)
	}
	return s, length, cksum, seq
}

func newEnv(s *header.Schema, payload []byte) *Env {
	env := &Env{Payload: payload, Order: bits.BigEndian}
	for c := header.Class(0); c < header.NumClasses; c++ {
		env.Hdr[c] = make([]byte, s.Size(c))
	}
	return env
}

// statusTooLarge is a non-zero status a program may return to tag the
// reason a message fails: here, a payload over the test's size limit.
const statusTooLarge = 1

// sendProgram builds a send filter: reject payloads over mtu with
// statusTooLarge, store payload size and Internet checksum into the
// message-specific header.
func sendProgram(t testing.TB, length, cksum header.Handle, mtu int64) *Program {
	t.Helper()
	b := NewBuilder()
	b.PushSize()
	b.PushConst(mtu)
	b.Arith(Gt)
	b.Abort(statusTooLarge)
	b.PushSize()
	b.PopField(length)
	b.Digest(DigestInternet)
	b.PopField(cksum)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// recvProgram verifies length and checksum, dropping mismatches.
func recvProgram(t testing.TB, length, cksum header.Handle) *Program {
	t.Helper()
	b := NewBuilder()
	b.PushField(length)
	b.PushSize()
	b.Arith(Ne)
	b.Abort(StatusDrop)
	b.PushField(cksum)
	b.Digest(DigestInternet)
	b.Arith(Ne)
	b.Abort(StatusDrop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSendRecvFilterRoundTrip(t *testing.T) {
	s, length, cksum, _ := testSchema(t)
	send := sendProgram(t, length, cksum, 1024)
	recv := recvProgram(t, length, cksum)

	env := newEnv(s, []byte("eight by"))
	if got := send.Run(env); got != StatusOK {
		t.Fatalf("send filter = %d", got)
	}
	if got := length.Read(env.Hdr[header.MsgSpec], env.Order); got != 8 {
		t.Fatalf("len field = %d", got)
	}
	if got := recv.Run(env); got != StatusOK {
		t.Fatalf("recv filter = %d", got)
	}
	// Corrupt the payload: the delivery filter must drop.
	env.Payload[0] ^= 0xFF
	if got := recv.Run(env); got != StatusDrop {
		t.Fatalf("recv filter on corrupt payload = %d, want drop", got)
	}
}

func TestSendFilterRejectsOversize(t *testing.T) {
	s, length, cksum, _ := testSchema(t)
	send := sendProgram(t, length, cksum, 4)
	env := newEnv(s, []byte("too large"))
	if got := send.Run(env); got != statusTooLarge {
		t.Fatalf("send filter = %d, want %d", got, statusTooLarge)
	}
}

func TestArithOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{Add, 3, 4, 7}, {Sub, 10, 4, 6}, {Mul, 3, 4, 12},
		{Div, 12, 4, 3}, {Mod, 10, 3, 1},
		{And, 0b1100, 0b1010, 0b1000}, {Or, 0b1100, 0b1010, 0b1110},
		{Xor, 0b1100, 0b1010, 0b0110}, {Shl, 1, 4, 16}, {Shr, 16, 4, 1},
		{Eq, 5, 5, 1}, {Eq, 5, 6, 0}, {Ne, 5, 6, 1},
		{Lt, 5, 6, 1}, {Le, 6, 6, 1}, {Gt, 7, 6, 1}, {Ge, 6, 7, 0},
	}
	for _, c := range cases {
		got, fault := binop(c.op, c.a, c.b)
		if fault || got != c.want {
			t.Errorf("%s(%d,%d) = %d fault=%v, want %d", c.op, c.a, c.b, got, fault, c.want)
		}
	}
}

func TestRuntimeFaults(t *testing.T) {
	for _, op := range []Op{Div, Mod} {
		b := NewBuilder()
		b.PushConst(1)
		b.PushConst(0)
		b.Arith(op)
		b.Return(0)
		p := b.MustBuild()
		if got := p.Run(&Env{}); got != StatusFault {
			t.Errorf("%s by zero = %d, want fault", op, got)
		}
	}
	b := NewBuilder()
	b.PushConst(1)
	b.PushConst(64)
	b.Arith(Shl)
	p := b.MustBuild()
	if got := p.Run(&Env{}); got != StatusFault {
		t.Errorf("shift 64 = %d, want fault", got)
	}
}

func TestStackOps(t *testing.T) {
	// dup + sub -> 0; swap makes 2-1 = 1 into 1-2 = huge; use Not.
	b := NewBuilder()
	b.PushConst(7)
	b.Arith(Dup)
	b.Arith(Sub)
	b.Arith(Not)
	b.Abort(42)
	b.Return(statusTooLarge)
	p := b.MustBuild()
	if got := p.Run(&Env{}); got != 42 {
		t.Fatalf("got %d, want 42", got)
	}

	b = NewBuilder()
	b.PushConst(2)
	b.PushConst(1)
	b.Arith(Swap) // now 1 2
	b.Arith(Sub)  // 1-2 wraps
	b.Abort(9)
	b.Return(0)
	p = b.MustBuild()
	if got := p.Run(&Env{}); got != 9 {
		t.Fatalf("swap/sub path = %d, want 9", got)
	}
}

func TestValidationUnderflow(t *testing.T) {
	b := NewBuilder()
	b.Arith(Add)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "underflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidationUnreachable(t *testing.T) {
	b := NewBuilder()
	b.Return(0)
	b.PushConst(1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidationInvalidHandle(t *testing.T) {
	b := NewBuilder()
	b.PushField(header.Handle{})
	if _, err := b.Build(); err == nil {
		t.Fatal("invalid handle accepted")
	}
}

func TestValidationBadDigest(t *testing.T) {
	b := NewBuilder()
	b.ins = append(b.ins, Instr{Op: Digest, Dig: DigestID(9999)})
	if _, err := b.Build(); err == nil {
		t.Fatal("unregistered digest accepted")
	}
}

func TestMaxStackComputation(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.PushConst(int64(i))
	}
	for i := 0; i < 4; i++ {
		b.Arith(Add)
	}
	b.Abort(1)
	p := b.MustBuild()
	if p.MaxStack() != 5 {
		t.Fatalf("MaxStack = %d, want 5", p.MaxStack())
	}
}

// A verifying builder hands back the very program it verifies when a
// stack emits that program's stream again, and fails Build on anything
// else — the engine then compiles a program of its own.
func TestVerifier(t *testing.T) {
	_, length, sum, _ := testSchema(t)
	// emit is the chksum layer's receive filter with every kind of operand
	// a layer can vary: op, digest id, constant, abort status, field.
	type operands struct {
		cmp    Op
		dig    DigestID
		limit  int64
		status int64
		field  header.Handle
		short  bool
		extra  bool
	}
	base := operands{cmp: Ne, dig: DigestInternet, limit: 1024, status: StatusDrop, field: length}
	var constIdx int
	emit := func(b *Builder, o operands) {
		b.PushField(o.field)
		b.PushSize()
		b.Arith(o.cmp)
		b.Abort(o.status)
		b.PushSize()
		if b.Len() != 5 {
			t.Errorf("Len() = %d after five emits", b.Len())
		}
		constIdx = b.PushConst(o.limit)
		b.Arith(Gt)
		b.Abort(statusTooLarge)
		b.PushField(sum)
		b.Digest(o.dig)
		b.Arith(Ne)
		if !o.short {
			b.Abort(StatusDrop)
		}
		if o.extra {
			b.PushSize()
			b.PopField(length)
		}
	}
	b := NewBuilder()
	emit(b, base)
	prog := b.MustBuild()
	wantIdx := constIdx

	alt := RegisterDigest("verifier-test", func(p []byte) uint64 { return 1 })
	cases := []struct {
		name string
		mod  func(*operands)
		ok   bool
	}{
		{"identical", func(o *operands) {}, true},
		{"op", func(o *operands) { o.cmp = Eq }, false},
		{"digest id", func(o *operands) { o.dig = alt }, false},
		{"PushConst argument", func(o *operands) { o.limit = 1025 }, false},
		{"Abort argument", func(o *operands) { o.status = statusTooLarge }, false},
		{"field handle", func(o *operands) { o.field = sum }, false},
		{"short stream", func(o *operands) { o.short = true }, false},
		{"long stream", func(o *operands) { o.extra = true }, false},
	}
	for _, tc := range cases {
		o := base
		tc.mod(&o)
		v := prog.Verifier()
		emit(v, o)
		if constIdx != wantIdx {
			t.Errorf("%s: PushConst returned index %d, the building run %d", tc.name, constIdx, wantIdx)
		}
		got, err := v.Build()
		switch {
		case tc.ok && (err != nil || got != prog):
			t.Errorf("%s: Build = %p, %v; want the verified program %p", tc.name, got, err, prog)
		case !tc.ok && err == nil:
			t.Errorf("%s: a differing stream verified", tc.name)
		case !tc.ok && got != nil:
			t.Errorf("%s: Build returned a program with error %v", tc.name, err)
		}
	}
}

func TestFallOffEndReturnsOK(t *testing.T) {
	b := NewBuilder()
	b.PushConst(1)
	b.PushConst(1)
	b.Arith(Add)
	b.Abort(0) // top is non-zero but status 0 == OK either way
	p := b.MustBuild()
	if got := p.Run(&Env{}); got != StatusOK {
		t.Fatalf("got %d, want StatusOK", got)
	}
	// Truly empty program.
	if got := NewBuilder().MustBuild().Run(&Env{}); got != StatusOK {
		t.Fatalf("empty program = %d", got)
	}
}

func TestInternetChecksum(t *testing.T) {
	// RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2,
	// checksum is its complement 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := InternetChecksum(b); got != 0x220d {
		t.Fatalf("checksum = %#x, want 0x220d", got)
	}
	// Odd length pads with zero.
	if got := InternetChecksum([]byte{0xFF}); got != uint64(^uint16(0xFF00)) {
		t.Fatalf("odd checksum = %#x", got)
	}
	if got := InternetChecksum(nil); got != 0xFFFF {
		t.Fatalf("empty checksum = %#x", got)
	}
}

func TestDigestRegistry(t *testing.T) {
	id := RegisterDigest("test-digest", func(b []byte) uint64 { return uint64(len(b)) })
	got, ok := LookupDigest("test-digest")
	if !ok || got != id {
		t.Fatal("lookup failed")
	}
	if DigestName(id) != "test-digest" {
		t.Fatalf("name = %q", DigestName(id))
	}
	if DigestName(DigestID(12345)) == "test-digest" {
		t.Fatal("bogus id resolved")
	}
	// Re-registration replaces the function but keeps the id.
	id2 := RegisterDigest("test-digest", func(b []byte) uint64 { return 7 })
	if id2 != id {
		t.Fatal("re-registration changed id")
	}
	fn, _ := DigestByID(id)
	if fn(nil) != 7 {
		t.Fatal("re-registration did not replace function")
	}
}

func TestDisassemble(t *testing.T) {
	_, length, cksum, _ := testSchema(t)
	p := sendProgram(t, length, cksum, 1024)
	d := p.Disassemble()
	for _, want := range []string{"push.size", "pop.field len", "digest inet16", "abort 1"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestAssembleRoundTrip(t *testing.T) {
	s, _, _, _ := testSchema(t)
	src := `
	; verify length then checksum
	push.field len
	push.size
	ne
	abort -1    # drop
	push.field chksum/ck
	digest inet16
	ne
	abort -1
	return 0
`
	p, err := Assemble(src, SchemaResolver(s))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 9 {
		t.Fatalf("len = %d", p.Len())
	}
	env := newEnv(s, []byte("hi"))
	// Unfilled headers: length 0 != 2 -> drop.
	if got := p.Run(env); got != StatusDrop {
		t.Fatalf("got %d", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	s, _, _, _ := testSchema(t)
	r := SchemaResolver(s)
	for _, src := range []string{
		"frobnicate",
		"push.const",
		"push.const notanumber",
		"push.field nosuchfield",
		"digest nosuchdigest",
		"add 3",
		"push.field len extra",
	} {
		if _, err := Assemble(src, r); err == nil {
			t.Errorf("Assemble(%q) succeeded", src)
		}
	}
}

func TestSchemaResolverLayerQualified(t *testing.T) {
	s := header.New()
	a, _ := s.AddField(header.ProtoSpec, "l1", "x", 8, header.DontCare)
	b, _ := s.AddField(header.Gossip, "l2", "x", 8, header.DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	r := SchemaResolver(s)
	h, ok := r("x")
	if !ok || h != a {
		t.Fatal("unqualified lookup should find first registration")
	}
	h, ok = r("l2/x")
	if !ok || h != b {
		t.Fatal("qualified lookup failed")
	}
	if _, ok := r("l3/x"); ok {
		t.Fatal("bogus layer resolved")
	}
}

// randomProgram emits a random instruction stream that mostly respects
// stack discipline; Build rejects the rest.
func randomProgram(rng *rand.Rand, handles []header.Handle) *Builder {
	b := NewBuilder()
	depth := 0
	for i, n := 0, 3+rng.Intn(20); i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 3 || depth == 0:
			switch rng.Intn(5) {
			case 0:
				b.PushConst(int64(rng.Uint64()) >> uint(rng.Intn(64)))
			case 1:
				b.PushField(handles[rng.Intn(len(handles))])
			case 2:
				b.PushSize()
			case 3:
				b.PushTime()
			case 4:
				b.Digest(DigestInternet)
			}
			depth++
		case k < 6 && depth >= 2:
			b.Arith(Add + Op(rng.Intn(int(Ge-Add)+1))) // any binary op
			depth--
		case k < 7:
			b.PopField(handles[rng.Intn(len(handles))])
			depth--
		case k < 8:
			b.Abort(int64(rng.Intn(5)))
			depth--
		case k < 9:
			b.Arith(Dup)
			depth++
		default:
			b.Arith(Not)
		}
	}
	return b
}

// checkRunProperties holds one run of a Build-accepted program to what
// must be true of it without a second executor to compare with: it does
// not panic, it is deterministic, its status is one the program or the VM
// can produce, it writes only the fields the program pops into, and it
// leaves the payload alone unless the program seals or opens it.
func checkRunProperties(t *testing.T, p *Program, s *header.Schema, payload []byte) {
	t.Helper()
	fresh := func() *Env {
		env := newEnv(s, append([]byte(nil), payload...))
		env.Time = 42
		for _, h := range env.Hdr {
			for i := range h {
				h[i] = 0xA5
			}
		}
		return env
	}
	env, again, before := fresh(), fresh(), fresh()
	status := p.Run(env)
	if got := p.Run(again); got != status || !reflect.DeepEqual(env.Hdr, again.Hdr) {
		t.Fatalf("not deterministic: status %d headers %x, then %d %x\n%s",
			status, env.Hdr, got, again.Hdr, p.Disassemble())
	}
	// Blank the popped fields on both sides: what is left of the result
	// must equal what was there before the run.
	allowed := map[int]bool{StatusOK: true, StatusFault: true}
	crypts := false
	for _, in := range p.Instructions() {
		switch in.Op {
		case Return, Abort:
			allowed[int(in.Arg)] = true
		case PopField:
			in.Field.Write(env.hdr(in.Field), env.Order, 0)
			in.Field.Write(before.hdr(in.Field), before.Order, 0)
		case Seal, Open:
			crypts = true
		}
	}
	if !allowed[status] {
		t.Fatalf("status %d is not OK, fault or a return/abort argument\n%s", status, p.Disassemble())
	}
	for cl := range env.Hdr {
		if !bytes.Equal(env.Hdr[cl], before.Hdr[cl]) {
			t.Fatalf("class %d header changed outside the popped fields: %x, was %x\n%s",
				cl, env.Hdr[cl], before.Hdr[cl], p.Disassemble())
		}
	}
	if !crypts && !bytes.Equal(env.Payload, payload) {
		t.Fatalf("payload changed without seal/open\n%s", p.Disassemble())
	}
}

// Property: Run satisfies checkRunProperties on random valid programs.
func TestQuickRunProperties(t *testing.T) {
	s, length, cksum, seq := testSchema(t)
	handles := []header.Handle{length, cksum, seq}
	built := 0
	f := func(seed int64, payload []byte) bool {
		p, err := randomProgram(rand.New(rand.NewSource(seed)), handles).Build()
		if err == nil {
			built++
			checkRunProperties(t, p, s, payload)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if built < 100 {
		t.Fatalf("only %d of 500 random programs passed validation", built)
	}
}

// Build resolves each digest once: a later re-registration does not reach
// into programs already built, and Run touches neither the process-wide
// registry lock nor the heap.
func TestRunBindsDigestAtBuild(t *testing.T) {
	s, _, cksum, _ := testSchema(t)
	build := func(v uint64) *Program {
		b := NewBuilder()
		b.Digest(RegisterDigest("bind-test", func([]byte) uint64 { return v }))
		b.PopField(cksum)
		return b.MustBuild()
	}
	first, second := build(1), build(2)
	env := newEnv(s, []byte("payload!"))

	// With the registry write-locked, a Run that consulted it would block.
	digests.Lock()
	var got [2]uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, p := range []*Program{first, second} {
			p.Run(env)
			got[i] = cksum.Read(env.Hdr[header.MsgSpec], env.Order)
		}
	}()
	select {
	case <-done:
		digests.Unlock()
	case <-time.After(5 * time.Second):
		digests.Unlock()
		t.Fatal("Run blocked on the digest registry lock")
	}
	if got != [2]uint64{1, 2} {
		t.Fatalf("digests computed = %v, want [1 2]: each program keeps the function it was built with", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { first.Run(env) }); allocs != 0 {
		t.Fatalf("Run allocates %.1f times per run", allocs)
	}
}

// Property: assembling a disassembled program yields the same behaviour.
func TestDisassembleAssembleIdentity(t *testing.T) {
	s, length, cksum, _ := testSchema(t)
	p := recvProgram(t, length, cksum)
	p2, err := Assemble(p.Disassemble(), SchemaResolver(s))
	if err != nil {
		t.Fatal(err)
	}
	env1 := newEnv(s, []byte("abc"))
	env2 := newEnv(s, []byte("abc"))
	if p.Run(env1) != p2.Run(env2) {
		t.Fatal("reassembled program behaves differently")
	}
}

func TestRunAllocationFree(t *testing.T) {
	s, length, cksum, _ := testSchema(t)
	send := sendProgram(t, length, cksum, 1024)
	env := newEnv(s, []byte("payload!"))
	allocs := testing.AllocsPerRun(100, func() { send.Run(env) })
	if allocs != 0 {
		t.Fatalf("Run allocates %.1f times per run", allocs)
	}
}

func BenchmarkInterpreted(b *testing.B) {
	s, length, cksum, _ := testSchema(b)
	send := sendProgram(b, length, cksum, 1024)
	env := newEnv(s, make([]byte, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if send.Run(env) != StatusOK {
			b.Fatal("filter failed")
		}
	}
}

func BenchmarkInternetChecksum1K(b *testing.B) {
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		InternetChecksum(buf)
	}
}
