package header

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"paccel/internal/bits"
)

func mustField(t *testing.T, s *Schema, c Class, layer, name string, size, off int) Handle {
	t.Helper()
	h, err := s.AddField(c, layer, name, size, off)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAddFieldValidation(t *testing.T) {
	s := New()
	if _, err := s.AddField(ProtoSpec, "l", "f", 0, DontCare); err == nil {
		t.Fatal("accepted 0-bit field")
	}
	if _, err := s.AddField(ProtoSpec, "l", "f", 65, DontCare); err == nil {
		t.Fatal("accepted 65-bit field")
	}
	if _, err := s.AddField(Class(9), "l", "f", 8, DontCare); err == nil {
		t.Fatal("accepted bad class")
	}
	if _, err := s.AddField(ProtoSpec, "l", "f", 8, -5); err == nil {
		t.Fatal("accepted negative non-DontCare offset")
	}
	if _, err := s.AddBytes(ConnID, "l", "b", 0); err == nil {
		t.Fatal("accepted 0-byte blob")
	}
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddField(ProtoSpec, "l", "late", 8, DontCare); err == nil {
		t.Fatal("accepted AddField after Compile")
	}
	if err := s.Compile(); err == nil {
		t.Fatal("accepted double Compile")
	}
}

func TestCompactPacksAcrossLayers(t *testing.T) {
	s := New()
	// Two layers each register small fields; the paper's point is that
	// they share bytes rather than each burning a padded header.
	a := mustField(t, s, ProtoSpec, "seqno", "seq", 32, DontCare)
	b := mustField(t, s, ProtoSpec, "retrans", "type", 2, DontCare)
	c := mustField(t, s, ProtoSpec, "frag", "isfrag", 1, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(ProtoSpec); got != 5 {
		t.Fatalf("proto-specific header = %d bytes, want 5 (32+2+1 bits)", got)
	}
	hdr := make([]byte, s.Size(ProtoSpec))
	a.Write(hdr, bits.BigEndian, 0xCAFEBABE)
	b.Write(hdr, bits.BigEndian, 2)
	c.Write(hdr, bits.BigEndian, 1)
	if a.Read(hdr, bits.BigEndian) != 0xCAFEBABE || b.Read(hdr, bits.BigEndian) != 2 || c.Read(hdr, bits.BigEndian) != 1 {
		t.Fatal("read-back mismatch")
	}
}

func TestCompactAlignment(t *testing.T) {
	s := New()
	f32 := mustField(t, s, MsgSpec, "l", "len", 32, DontCare)
	f1 := mustField(t, s, MsgSpec, "l", "flag", 1, DontCare)
	f16 := mustField(t, s, MsgSpec, "l", "cksum", 16, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if f32.Offset()%32 != 0 {
		t.Errorf("32-bit field at %d, want 32-bit aligned", f32.Offset())
	}
	if f16.Offset()%16 != 0 {
		t.Errorf("16-bit field at %d, want 16-bit aligned", f16.Offset())
	}
	_ = f1
	if s.Size(MsgSpec) != 7 { // 32+16+1 bits = 49 -> 7 bytes
		t.Errorf("size = %d, want 7", s.Size(MsgSpec))
	}
}

func TestSmallFieldsFillGaps(t *testing.T) {
	s := New()
	// A 4-bit field plus a 32-bit field plus another 4-bit field: the
	// two nibbles should pack around the word, total 5 bytes.
	mustField(t, s, Gossip, "a", "n1", 4, DontCare)
	mustField(t, s, Gossip, "b", "word", 32, DontCare)
	mustField(t, s, Gossip, "c", "n2", 4, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if s.Size(Gossip) != 5 {
		t.Fatalf("size = %d, want 5", s.Size(Gossip))
	}
}

func TestFixedOffsets(t *testing.T) {
	s := New()
	f := mustField(t, s, ProtoSpec, "l", "fixed", 8, 16)
	g := mustField(t, s, ProtoSpec, "l", "free", 16, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if f.Offset() != 16 {
		t.Fatalf("fixed field at %d, want 16", f.Offset())
	}
	if g.Offset() == 16 || (g.Offset() < 24 && g.Offset()+16 > 16) {
		t.Fatalf("free field overlaps fixed: offset %d", g.Offset())
	}
}

func TestFixedOffsetOverlapRejected(t *testing.T) {
	s := New()
	mustField(t, s, ProtoSpec, "l", "a", 16, 0)
	mustField(t, s, ProtoSpec, "l", "b", 16, 8)
	if err := s.Compile(); err == nil {
		t.Fatal("overlapping fixed offsets accepted")
	}
}

func TestBlobFields(t *testing.T) {
	s := New()
	addr, err := s.AddBytes(ConnID, "bottom", "src", 32)
	if err != nil {
		t.Fatal(err)
	}
	small := mustField(t, s, ConnID, "bottom", "port", 16, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	if addr.Offset()%8 != 0 {
		t.Fatalf("blob at bit %d, not byte aligned", addr.Offset())
	}
	hdr := make([]byte, s.Size(ConnID))
	copy(addr.Bytes(hdr), "this-is-a-32-byte-address-value!")
	small.Write(hdr, bits.BigEndian, 4242)
	if string(addr.Bytes(hdr)) != "this-is-a-32-byte-address-value!" {
		t.Fatal("blob round-trip failed")
	}
	if small.Read(hdr, bits.BigEndian) != 4242 {
		t.Fatal("numeric field corrupted by blob")
	}
}

func TestBlobAccessorPanics(t *testing.T) {
	s := New()
	blob, _ := s.AddBytes(ConnID, "l", "b", 4)
	num := mustField(t, s, ConnID, "l", "n", 8, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, s.Size(ConnID))
	for _, f := range []func(){
		func() { blob.Read(hdr, bits.BigEndian) },
		func() { blob.Write(hdr, bits.BigEndian, 1) },
		func() { num.Bytes(hdr) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTotalSizeExcludesConnID(t *testing.T) {
	s := New()
	if _, err := s.AddBytes(ConnID, "bottom", "addr", 76); err != nil {
		t.Fatal(err)
	}
	mustField(t, s, ProtoSpec, "seqno", "seq", 32, DontCare)
	mustField(t, s, MsgSpec, "chksum", "ck", 16, DontCare)
	mustField(t, s, Gossip, "retrans", "ack", 32, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	// ConnID is sent only occasionally; the normal message carries
	// proto+msg+gossip = 4+2+4 = 10 bytes.
	if got := s.TotalSize(); got != 10 {
		t.Fatalf("TotalSize = %d, want 10", got)
	}
	if s.Size(ConnID) != 76 {
		t.Fatalf("ConnID size = %d, want 76", s.Size(ConnID))
	}
}

// The paper's headline comparison: a small stack whose per-layer aligned
// headers waste at least 12 bytes of padding, against compact headers that
// eliminate it (§2.1).
func TestLayeredVsCompactPadding(t *testing.T) {
	build := func() *Schema {
		s := New()
		mustField(t, s, ProtoSpec, "seqno", "seq", 32, DontCare)
		mustField(t, s, ProtoSpec, "retrans", "type", 2, DontCare)
		mustField(t, s, Gossip, "retrans", "ack", 32, DontCare)
		mustField(t, s, Gossip, "window", "credit", 16, DontCare)
		mustField(t, s, MsgSpec, "chksum", "len", 16, DontCare)
		mustField(t, s, MsgSpec, "chksum", "ck", 16, DontCare)
		mustField(t, s, ProtoSpec, "frag", "isfrag", 1, DontCare)
		return s
	}
	pa := build()
	if err := pa.Compile(); err != nil {
		t.Fatal(err)
	}
	base := build()
	if err := base.CompileLayered(); err != nil {
		t.Fatal(err)
	}
	if pa.TotalSize() >= base.TotalSize() {
		t.Fatalf("compact %d >= layered %d bytes", pa.TotalSize(), base.TotalSize())
	}
	// Baseline blocks are 4-byte padded: frag's single bit costs 4 bytes.
	if got := base.LayerBlockSize("frag"); got != 4 {
		t.Fatalf("frag block = %d, want 4", got)
	}
	if base.PaddingBits(0) < 12*8-64 { // generous lower bound on waste
		t.Logf("layered padding = %d bits", base.PaddingBits(0))
	}
}

func TestLayeredLayout(t *testing.T) {
	s := New()
	a := mustField(t, s, ProtoSpec, "l1", "a", 8, DontCare)
	b := mustField(t, s, ProtoSpec, "l1", "b", 32, DontCare)
	c := mustField(t, s, ProtoSpec, "l2", "c", 16, DontCare)
	if err := s.CompileLayered(); err != nil {
		t.Fatal(err)
	}
	// l1: a at 0, b naturally aligned at 32, block = 8 bytes.
	if a.Offset() != 0 || b.Offset() != 32 {
		t.Fatalf("a=%d b=%d", a.Offset(), b.Offset())
	}
	if s.LayerBlockSize("l1") != 8 {
		t.Fatalf("l1 block = %d", s.LayerBlockSize("l1"))
	}
	// l2 starts on the next 4-byte boundary.
	if c.Offset() != 64 {
		t.Fatalf("c=%d", c.Offset())
	}
	if s.TotalSize() != 12 {
		t.Fatalf("total = %d", s.TotalSize())
	}
	hdr := make([]byte, s.TotalSize())
	b.Write(hdr, bits.LittleEndian, 0x01020304)
	if b.Read(hdr, bits.LittleEndian) != 0x01020304 {
		t.Fatal("layered read-back failed")
	}
}

func TestReport(t *testing.T) {
	s := New()
	mustField(t, s, ProtoSpec, "seqno", "seq", 32, DontCare)
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	r := s.Report()
	if !strings.Contains(r, "seq") || !strings.Contains(r, "protocol-specific") {
		t.Fatalf("report missing fields:\n%s", r)
	}
	s2 := New()
	mustField(t, s2, ProtoSpec, "seqno", "seq", 32, DontCare)
	if err := s2.CompileLayered(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s2.Report(), "layered") {
		t.Fatal("layered report missing")
	}
	if New().Report() != "uncompiled schema" {
		t.Fatal("uncompiled report")
	}
}

func TestLayersAccessor(t *testing.T) {
	s := New()
	mustField(t, s, ProtoSpec, "x", "a", 8, DontCare)
	mustField(t, s, ProtoSpec, "y", "b", 8, DontCare)
	mustField(t, s, Gossip, "x", "c", 8, DontCare)
	ls := s.Layers()
	if len(ls) != 2 || ls[0] != "x" || ls[1] != "y" {
		t.Fatalf("layers = %v", ls)
	}
}

func TestHandleValid(t *testing.T) {
	var h Handle
	if h.Valid() {
		t.Fatal("zero handle valid")
	}
	s := New()
	h = mustField(t, s, ProtoSpec, "l", "f", 8, DontCare)
	if !h.Valid() {
		t.Fatal("real handle invalid")
	}
	if h.Class() != ProtoSpec || h.Name() != "f" || h.SizeBits() != 8 {
		t.Fatal("handle metadata wrong")
	}
}

// Property: however fields are registered, compilation never overlaps two
// fields and every field round-trips any value, in both byte orders.
// replayReg is one registration of the replay test's stack.
type replayReg struct {
	class       Class
	layer, name string
	size, off   int // bits (bytes for a blob) and requested offset
	blob        bool
}

func (r replayReg) add(s *Schema) (Handle, error) {
	if r.blob {
		return s.AddBytes(r.class, r.layer, r.name, r.size)
	}
	return s.AddField(r.class, r.layer, r.name, r.size, r.off)
}

// A replay view hands a stack that registers what the compiled schema was
// built from the compiled schema's own handles, and reports any stream
// that differs from it in any argument or in length.
func TestReplayView(t *testing.T) {
	regs := []replayReg{
		{ConnID, "ident", "src", 16, DontCare, true},
		{ConnID, "ident", "sport", 16, DontCare, false},
		{ProtoSpec, "window", "seq", 32, 0, false},
		{ProtoSpec, "frag", "isfrag", 1, DontCare, false},
		{MsgSpec, "chksum", "ck", 16, DontCare, false},
		{Gossip, "window", "ack", 32, DontCare, false},
	}
	compiled := New()
	var want []Handle
	for _, r := range regs {
		h, err := r.add(compiled)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, h)
	}
	if err := compiled.Compile(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mod  func(rs []replayReg) []replayReg
		ok   bool
	}{
		{"matching", func(rs []replayReg) []replayReg { return rs }, true},
		{"class", func(rs []replayReg) []replayReg { rs[3].class = MsgSpec; return rs }, false},
		{"size", func(rs []replayReg) []replayReg { rs[4].size = 32; return rs }, false},
		{"fixed offset", func(rs []replayReg) []replayReg { rs[2].off = 8; return rs }, false},
		{"fixed offset dropped", func(rs []replayReg) []replayReg { rs[2].off = DontCare; return rs }, false},
		{"blob-ness", func(rs []replayReg) []replayReg { rs[1].size, rs[1].blob = 2, true; return rs }, false},
		{"layer", func(rs []replayReg) []replayReg { rs[5].layer = "nak"; return rs }, false},
		{"name", func(rs []replayReg) []replayReg { rs[0].name = "dst"; return rs }, false},
		{"missing last field", func(rs []replayReg) []replayReg { return rs[:len(rs)-1] }, false},
		{"one extra field", func(rs []replayReg) []replayReg {
			return append(rs, replayReg{Gossip, "stamp", "ts", 32, DontCare, false})
		}, false},
	}
	for _, tc := range cases {
		view := compiled.Replay()
		var addErr error
		for i, r := range tc.mod(append([]replayReg(nil), regs...)) {
			h, err := r.add(view)
			if err != nil {
				addErr = err
				continue // a layer that ignores the error must not get past Replayed
			}
			if addErr != nil {
				t.Errorf("%s: registration %d succeeded after a failed one", tc.name, i)
			}
			if h != want[i] {
				t.Errorf("%s: registration %d returned a handle that is not the compiled field's", tc.name, i)
			}
		}
		err := view.Replayed()
		if tc.ok && (addErr != nil || err != nil) {
			t.Errorf("%s: add %v, Replayed %v; want a clean replay", tc.name, addErr, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: not reported (add error %v)", tc.name, addErr)
		}
		if err := view.Compile(); err == nil {
			t.Errorf("%s: Compile on a replay view succeeded", tc.name)
		}
		if err := view.CompileLayered(); err == nil {
			t.Errorf("%s: CompileLayered on a replay view succeeded", tc.name)
		}
	}
	if err := compiled.Replayed(); err == nil {
		t.Error("Replayed on a schema that is not a view returned nil")
	}
	if got := compiled.Fields(); len(got) != len(regs) || compiled.Size(ProtoSpec) != 5 {
		t.Errorf("replaying changed the compiled schema: %d fields, proto %d bytes", len(got), compiled.Size(ProtoSpec))
	}
}

func TestQuickCompactNoOverlap(t *testing.T) {
	type spec struct {
		Class uint8
		Size  uint8
	}
	f := func(specs []spec, seed int64) bool {
		if len(specs) > 24 {
			specs = specs[:24]
		}
		s := New()
		var hs []Handle
		for i, sp := range specs {
			size := int(sp.Size%64) + 1
			h, err := s.AddField(Class(sp.Class%NumClasses), "l", "f", size, DontCare)
			if err != nil {
				return false
			}
			hs = append(hs, h)
			_ = i
		}
		if err := s.Compile(); err != nil {
			return false
		}
		// Overlap check per class.
		for i := range hs {
			for j := i + 1; j < len(hs); j++ {
				if hs[i].Class() != hs[j].Class() {
					continue
				}
				a0, a1 := hs[i].Offset(), hs[i].Offset()+hs[i].SizeBits()
				b0, b1 := hs[j].Offset(), hs[j].Offset()+hs[j].SizeBits()
				if a0 < b1 && b0 < a1 {
					return false
				}
			}
		}
		// Round-trip all fields simultaneously.
		rng := rand.New(rand.NewSource(seed))
		hdrs := [NumClasses][]byte{}
		for c := Class(0); c < NumClasses; c++ {
			hdrs[c] = make([]byte, s.Size(c))
		}
		order := bits.BigEndian
		if seed%2 == 0 {
			order = bits.LittleEndian
		}
		want := make([]uint64, len(hs))
		for i, h := range hs {
			want[i] = rng.Uint64() & bits.Mask(h.SizeBits())
			h.Write(hdrs[h.Class()], order, want[i])
		}
		for i, h := range hs {
			if h.Read(hdrs[h.Class()], order) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// layoutSpec is one free-offset field of a generated schema.
type layoutSpec struct {
	Class, Size, Layer uint8
}

func (sp layoutSpec) class() Class  { return Class(sp.Class % NumClasses) }
func (sp layoutSpec) bits() int     { return int(sp.Size%64) + 1 }
func (sp layoutSpec) layer() string { return string(rune('a' + sp.Layer%6)) }

// compileBoth lays the same fields out compactly and layered and returns
// both total sizes in bytes (the compact one including ConnID, which the
// layered format carries inline).
func compileBoth(t *testing.T, specs []layoutSpec) (compact, layered int) {
	t.Helper()
	build := func() *Schema {
		s := New()
		for _, sp := range specs {
			if _, err := s.AddField(sp.class(), sp.layer(), "f", sp.bits(), DontCare); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	pa, base := build(), build()
	if err := pa.Compile(); err != nil {
		t.Fatal(err)
	}
	if err := base.CompileLayered(); err != nil {
		t.Fatal(err)
	}
	return pa.TotalSize() + pa.Size(ConnID), base.TotalSize()
}

// compactSlackBytes is how many bytes the compact layout of free-offset
// fields may exceed the layered one by. "Compact is never larger" is not a
// theorem (the table in TestQuickCompactNeverLarger has counterexamples);
// this additive bound is.
//
// Layered: every field starts on a byte boundary (the baseline never
// bit-packs), so it occupies at least its size rounded up to a byte:
//
//	layered >= Σ_f ceil(size_f / 8).
//
// Compact, per class c: the header ends at bit S_c + W_c, where S_c is
// the sum of the class's field sizes and W_c the free bits left below the
// end. Only placing an aligned field at the tail leaves free bits behind,
// fewer than its alignment; a field that first-fits into an earlier gap
// only uses some up. Equal sizes are adjacent in the decreasing order and
// leave the tail aligned for each other, and the largest size of a class
// starts at bit 0, so each distinct aligned size below the class maximum
// wastes at most once:
//
//	W_c <= Σ_{distinct aligned sizes s < max_c} (align(s) - 1)
//	compact_c = ceil((S_c + W_c) / 8) <= Σ_{f in c} ceil(size_f / 8) + ceil(W_c / 8).
//
// Summing over classes: compact <= layered + Σ_c ceil(W_c / 8). Without
// an aligned field below a larger one the slack is zero and the old
// property holds.
func compactSlackBytes(specs []layoutSpec) int {
	slack := 0
	for c := Class(0); c < NumClasses; c++ {
		maxBits, aligned := 0, map[int]int{}
		for _, sp := range specs {
			if sp.class() != c {
				continue
			}
			n := sp.bits()
			if n > maxBits {
				maxBits = n
			}
			if a := alignment(&Field{SizeBits: n}); a > 1 {
				aligned[n] = a
			}
		}
		waste := 0
		for n, a := range aligned {
			if n < maxBits {
				waste += a - 1
			}
		}
		slack += (waste + 7) / 8
	}
	return slack
}

// Property: the compact layout exceeds the layered baseline by no more
// than alignment slack accounts for (compactSlackBytes).
func TestQuickCompactNeverLarger(t *testing.T) {
	// Inputs quick.Check found against the old property "compact <=
	// layered" (about 2 % of runs drew one), as (class, size, layer).
	// The mechanism is the same in all: first-fit-decreasing places a
	// larger unaligned field before a naturally aligned 32-bit one, which
	// skips to bit 64 (36 + 32 end at 96 bits where 32 + 36 would end at
	// 68), while the layered format gives the 32-bit field an aligned
	// start in its own block; a small field in a class of its own then
	// costs a byte that the layered block padding would have absorbed.
	// Placement order is pinned by the golden wire format, so the
	// property is restated, not the layout changed.
	for _, tc := range []struct {
		name             string
		specs            []layoutSpec
		compact, layered int
	}{
		{"36 before 32", []layoutSpec{{1, 62, 4}, {0, 35, 4}, {2, 51, 0}, {1, 9, 4}, {0, 31, 5}}, 29, 28},
		{"49 before 32, 2 bits alone in a class", []layoutSpec{{2, 48, 0}, {3, 1, 0}, {2, 31, 2}}, 13, 12},
		{"39 before 32, two bytes", []layoutSpec{{3, 42, 3}, {2, 31, 4}, {2, 38, 3}}, 18, 16},
		{"48 before 32 before 19", []layoutSpec{{0, 31, 3}, {3, 56, 2}, {2, 49, 5}, {0, 18, 5}, {0, 47, 5}}, 30, 28},
		{"40 before 32", []layoutSpec{{0, 41, 1}, {2, 61, 2}, {0, 55, 5}, {3, 31, 3}, {3, 39, 1}}, 33, 32},
		{"40 before 32, four classes", []layoutSpec{{0, 19, 5}, {2, 31, 5}, {1, 31, 1}, {1, 39, 5}, {0, 28, 1}, {3, 42, 5}}, 29, 28},
		{"57 and 50 before 32 before 24", []layoutSpec{{2, 31, 0}, {2, 56, 3}, {1, 15, 2}, {2, 23, 2}, {2, 49, 2}}, 25, 24},
		{"seven fields", []layoutSpec{{0, 60, 3}, {3, 49, 4}, {0, 28, 3}, {1, 28, 3}, {2, 10, 1}, {1, 39, 4}, {1, 31, 5}}, 37, 36},
		{"ten fields", []layoutSpec{{3, 31, 0}, {0, 17, 1}, {2, 57, 4}, {2, 31, 1}, {0, 32, 1}, {2, 19, 0}, {2, 39, 0}, {3, 22, 1}, {3, 47, 1}, {2, 40, 1}}, 49, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compact, layered := compileBoth(t, tc.specs)
			if compact != tc.compact || layered != tc.layered {
				t.Fatalf("compact %d, layered %d bytes; want %d, %d", compact, layered, tc.compact, tc.layered)
			}
			if slack := compactSlackBytes(tc.specs); compact > layered+slack {
				t.Fatalf("compact %d bytes > layered %d + %d bytes of slack", compact, layered, slack)
			}
		})
	}

	f := func(specs []layoutSpec) bool {
		if len(specs) > 20 {
			specs = specs[:20]
		}
		if len(specs) == 0 {
			return true
		}
		compact, layered := compileBoth(t, specs)
		return compact <= layered+compactSlackBytes(specs)
	}
	// A fixed seed: tier-1 must not depend on which inputs a run draws.
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1996))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		s.AddField(ProtoSpec, "seqno", "seq", 32, DontCare)
		s.AddField(ProtoSpec, "retrans", "type", 2, DontCare)
		s.AddField(ProtoSpec, "frag", "isfrag", 1, DontCare)
		s.AddField(MsgSpec, "chksum", "len", 16, DontCare)
		s.AddField(MsgSpec, "chksum", "ck", 16, DontCare)
		s.AddField(Gossip, "retrans", "ack", 32, DontCare)
		s.AddField(Gossip, "window", "credit", 16, DontCare)
		s.AddBytes(ConnID, "bottom", "addr", 76)
		if err := s.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldReadWrite(b *testing.B) {
	s := New()
	h, _ := s.AddField(ProtoSpec, "seqno", "seq", 32, DontCare)
	if err := s.Compile(); err != nil {
		b.Fatal(err)
	}
	hdr := make([]byte, s.Size(ProtoSpec))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Write(hdr, bits.BigEndian, uint64(i))
		if h.Read(hdr, bits.BigEndian) != uint64(i)&0xFFFFFFFF {
			b.Fatal("mismatch")
		}
	}
}

// Property: layered (baseline) compilation never overlaps two fields
// either, and blocks appear in registration order with 4-byte padding.
func TestQuickLayeredNoOverlap(t *testing.T) {
	type spec struct {
		Class, Size, Layer uint8
	}
	f := func(specs []spec) bool {
		if len(specs) == 0 {
			return true
		}
		if len(specs) > 20 {
			specs = specs[:20]
		}
		s := New()
		var hs []Handle
		for _, sp := range specs {
			layer := string(rune('a' + sp.Layer%5))
			h, err := s.AddField(Class(sp.Class%NumClasses), layer, "f", int(sp.Size%64)+1, DontCare)
			if err != nil {
				return false
			}
			hs = append(hs, h)
		}
		if err := s.CompileLayered(); err != nil {
			return false
		}
		for i := range hs {
			for j := i + 1; j < len(hs); j++ {
				a0, a1 := hs[i].Offset(), hs[i].Offset()+hs[i].SizeBits()
				b0, b1 := hs[j].Offset(), hs[j].Offset()+hs[j].SizeBits()
				if a0 < b1 && b0 < a1 {
					return false
				}
			}
		}
		// Every layer block is a whole multiple of 4 bytes.
		for _, l := range s.Layers() {
			if s.LayerBlockSize(l)%4 != 0 {
				return false
			}
		}
		return s.TotalSize()%4 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
