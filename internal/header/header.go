// Package header implements the Protocol Accelerator's header-information
// classes and layout compiler (paper §2).
//
// Each protocol layer registers the fields it needs with
//
//	handle = schema.AddField(class, layer, name, sizeBits, offsetBits)
//
// exactly mirroring the paper's add_field(class, name, size, offset) call.
// After every layer has initialized, the schema is compiled into four
// compact headers, one per class. Compilation observes field size and — if
// requested — offset, but not layer boundaries: fields from different
// layers are mixed arbitrarily, minimizing padding while optimizing
// alignment (§2.1).
//
// The same schema can instead be compiled the traditional way
// (CompileLayered): one header block per layer, C-struct style natural
// alignment inside each block, every block padded to a 4-byte boundary,
// and all classes — including the large connection identification — sent
// inline on every message. That layout is the "original Horus" baseline the
// paper compares against.
package header

import (
	"fmt"
	"sort"
	"strings"

	"paccel/internal/bits"
)

// Class is a header-information class (§2.1).
type Class uint8

// The four header information classes of the paper, in wire order.
const (
	// ConnID identifies the connection and never changes during its
	// lifetime: addresses, ports, byte-ordering of the peers' machines.
	// Sent only on first/unusual messages (§2.2).
	ConnID Class = iota
	// ProtoSpec is needed for correct delivery of the particular frame
	// and depends only on protocol state — never on message contents or
	// send time. Predictable (§3.2).
	ProtoSpec
	// MsgSpec depends on the message itself: length, checksum,
	// timestamp. Filled in and checked by packet filters (§3.3).
	MsgSpec
	// Gossip need not accompany the message but is piggybacked for
	// efficiency (acknowledgements); may be stale without affecting
	// correctness.
	Gossip
	// NumClasses is the number of header classes.
	NumClasses = 4
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case ConnID:
		return "connection-identification"
	case ProtoSpec:
		return "protocol-specific"
	case MsgSpec:
		return "message-specific"
	case Gossip:
		return "gossip"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// DontCare is passed as the offset argument of AddField when the caller
// has no layout requirement (the paper's offset = -1).
const DontCare = -1

// Field describes one registered header field after compilation.
type Field struct {
	Class    Class
	Layer    string // registering layer, for reports and baseline layout
	Name     string // need not be unique (paper §2.1)
	SizeBits int
	// WantOffset is the requested bit offset, or DontCare.
	WantOffset int
	// Blob marks byte-string fields (addresses); they are always
	// byte-aligned and accessed with Handle.Bytes.
	Blob bool

	seq    int // registration order
	offset int // assigned bit offset, valid after compilation
}

// Handle refers to a registered field; it is returned by AddField and used
// for all later access, including by packet filter programs.
type Handle struct{ f *Field }

// Valid reports whether the handle refers to a field.
func (h Handle) Valid() bool { return h.f != nil }

// Class returns the field's header class.
func (h Handle) Class() Class { return h.f.Class }

// Name returns the field's registered name.
func (h Handle) Name() string { return h.f.Name }

// Layer returns the name of the layer that registered the field.
func (h Handle) Layer() string { return h.f.Layer }

// IsBlob reports whether the field is a byte-string field.
func (h Handle) IsBlob() bool { return h.f.Blob }

// SizeBits returns the field's size in bits.
func (h Handle) SizeBits() int { return h.f.SizeBits }

// Offset returns the field's assigned bit offset within its compiled
// header (compact mode) or within the single combined header (layered
// mode).
func (h Handle) Offset() int { return h.f.offset }

// Read returns the field value from the class header region hdr, honouring
// the byte order for aligned power-of-two fields. It must not be called on
// blob fields.
func (h Handle) Read(hdr []byte, order bits.ByteOrder) uint64 {
	if h.f.Blob {
		panic("header: Read on blob field " + h.f.Name)
	}
	return bits.ReadUint(hdr, h.f.offset, h.f.SizeBits, order)
}

// Write stores v into the field in the class header region hdr.
// It must not be called on blob fields.
func (h Handle) Write(hdr []byte, order bits.ByteOrder, v uint64) {
	if h.f.Blob {
		panic("header: Write on blob field " + h.f.Name)
	}
	bits.WriteUint(hdr, h.f.offset, h.f.SizeBits, order, v)
}

// Bytes returns the byte region of a blob field within hdr.
func (h Handle) Bytes(hdr []byte) []byte {
	if !h.f.Blob {
		panic("header: Bytes on numeric field " + h.f.Name)
	}
	off := h.f.offset / 8
	return hdr[off : off+h.f.SizeBits/8]
}

// Mode records how a schema was compiled.
type Mode uint8

// Compilation modes.
const (
	// Uncompiled schemas accept AddField but no access.
	Uncompiled Mode = iota
	// Compact is the PA layout: four per-class headers, cross-layer
	// field packing (§2.1).
	Compact
	// Layered is the traditional layout: one block per layer, each
	// padded to 4 bytes, all classes inline.
	Layered
)

// Schema collects the header fields registered by a protocol stack's
// layers and compiles them into a header layout. A compiled schema is
// immutable and may be shared by any number of connections.
type Schema struct {
	fields  []*Field
	mode    Mode
	size    [NumClasses]int // compact: bytes per class header
	total   int             // layered: bytes of the single header
	layers  []string        // registration order of layers (layered mode blocks)
	blkSize map[string]int  // layered: bytes per layer block

	// Replay view state (see Replay): the compiled schema being replayed,
	// how many of its fields have been registered again, and the first
	// registration that differed.
	of     *Schema
	next   int
	differ error
}

// New returns an empty schema.
func New() *Schema { return &Schema{blkSize: make(map[string]int)} }

// AddField registers a numeric field of sizeBits (1..64) for the named
// layer. offsetBits fixes the field's bit offset in its compiled class
// header, or DontCare. It returns a handle for later access.
func (s *Schema) AddField(class Class, layer, name string, sizeBits, offsetBits int) (Handle, error) {
	if s.of != nil {
		return s.replay(Field{Class: class, Layer: layer, Name: name, SizeBits: sizeBits, WantOffset: offsetBits})
	}
	if s.mode != Uncompiled {
		return Handle{}, fmt.Errorf("header: AddField(%s/%s) after compilation", layer, name)
	}
	if class >= NumClasses {
		return Handle{}, fmt.Errorf("header: field %s/%s: invalid class %d", layer, name, class)
	}
	if sizeBits < 1 || sizeBits > 64 {
		return Handle{}, fmt.Errorf("header: field %s/%s: size %d bits out of range [1,64]", layer, name, sizeBits)
	}
	if offsetBits < 0 && offsetBits != DontCare {
		return Handle{}, fmt.Errorf("header: field %s/%s: invalid offset %d", layer, name, offsetBits)
	}
	f := &Field{
		Class: class, Layer: layer, Name: name,
		SizeBits: sizeBits, WantOffset: offsetBits,
		seq: len(s.fields),
	}
	s.fields = append(s.fields, f)
	s.noteLayer(layer)
	return Handle{f}, nil
}

// AddBytes registers a byte-string field of sizeBytes bytes (an address,
// a key). Blob fields are always byte-aligned and accessed via
// Handle.Bytes.
func (s *Schema) AddBytes(class Class, layer, name string, sizeBytes int) (Handle, error) {
	if s.of != nil {
		return s.replay(Field{Class: class, Layer: layer, Name: name, SizeBits: sizeBytes * 8, WantOffset: DontCare, Blob: true})
	}
	if s.mode != Uncompiled {
		return Handle{}, fmt.Errorf("header: AddBytes(%s/%s) after compilation", layer, name)
	}
	if class >= NumClasses {
		return Handle{}, fmt.Errorf("header: field %s/%s: invalid class %d", layer, name, class)
	}
	if sizeBytes < 1 {
		return Handle{}, fmt.Errorf("header: field %s/%s: size %d bytes out of range", layer, name, sizeBytes)
	}
	f := &Field{
		Class: class, Layer: layer, Name: name,
		SizeBits: sizeBytes * 8, WantOffset: DontCare, Blob: true,
		seq: len(s.fields),
	}
	s.fields = append(s.fields, f)
	s.noteLayer(layer)
	return Handle{f}, nil
}

// Replay returns a replay view of the compiled schema s: a registration
// surface for a stack that is expected to have the shape s was compiled
// from. AddField and AddBytes on the view register nothing; each checks
// its arguments — class, layer, name, size, requested offset, blob-ness —
// against the next field of s in registration order and returns that
// field's handle, so the layers of every connection of one shape hold
// handles into the one shared schema. The first registration that differs
// fails, and so does every later one; Replayed reports whether the whole
// of s, no more and no less, was registered again. A view cannot be
// compiled and has no layout of its own.
func (s *Schema) Replay() *Schema {
	if s.mode == Uncompiled {
		panic("header: Replay of an uncompiled schema")
	}
	return &Schema{of: s}
}

// replay matches one registration on a replay view against the next
// compiled field.
func (s *Schema) replay(got Field) (Handle, error) {
	if s.differ != nil {
		return Handle{}, s.differ
	}
	if s.next == len(s.of.fields) {
		s.differ = fmt.Errorf("header: replay: field %s/%s is not in the compiled schema (%d fields)",
			got.Layer, got.Name, len(s.of.fields))
		return Handle{}, s.differ
	}
	want := s.of.fields[s.next]
	got.seq, got.offset = want.seq, want.offset
	if got != *want {
		s.differ = fmt.Errorf("header: replay: field %d is %s/%s (%s, %d bits, offset %d, blob %t), compiled as %s/%s (%s, %d bits, offset %d, blob %t)",
			s.next, got.Layer, got.Name, got.Class, got.SizeBits, got.WantOffset, got.Blob,
			want.Layer, want.Name, want.Class, want.SizeBits, want.WantOffset, want.Blob)
		return Handle{}, s.differ
	}
	s.next++
	return Handle{want}, nil
}

// Replayed reports whether the registrations made on a replay view
// reproduced the compiled schema exactly: nil if they did, otherwise the
// first difference (including fields of the compiled schema that were
// never registered).
func (s *Schema) Replayed() error {
	if s.of == nil {
		return fmt.Errorf("header: Replayed on a schema that is not a replay view")
	}
	if s.differ == nil && s.next < len(s.of.fields) {
		f := s.of.fields[s.next]
		return fmt.Errorf("header: replay: compiled field %d (%s/%s) was not registered", s.next, f.Layer, f.Name)
	}
	return s.differ
}

func (s *Schema) noteLayer(layer string) {
	for _, l := range s.layers {
		if l == layer {
			return
		}
	}
	s.layers = append(s.layers, layer)
}

// Size returns the compiled byte size of the class header (Compact mode).
func (s *Schema) Size(class Class) int {
	if s.mode != Compact {
		panic("header: Size on non-compact schema")
	}
	return s.size[class]
}

// TotalSize returns the combined size of all headers a normal message
// carries. In Compact mode that excludes ConnID (sent only occasionally);
// in Layered mode it is the full per-layer header including ConnID.
func (s *Schema) TotalSize() int {
	switch s.mode {
	case Compact:
		return s.size[ProtoSpec] + s.size[MsgSpec] + s.size[Gossip]
	case Layered:
		return s.total
	}
	panic("header: TotalSize on uncompiled schema")
}

// Fields returns the registered fields in registration order. The returned
// slice must not be modified.
func (s *Schema) Fields() []Handle {
	hs := make([]Handle, len(s.fields))
	for i, f := range s.fields {
		hs[i] = Handle{f}
	}
	return hs
}

// alignment returns the required bit alignment for a field: natural
// alignment for power-of-two word sizes, byte alignment for blobs and
// byte-multiple sizes, none otherwise.
func alignment(f *Field) int {
	if f.Blob {
		return 8
	}
	switch f.SizeBits {
	case 8, 16, 32, 64:
		return f.SizeBits
	}
	if f.SizeBits%8 == 0 {
		return 8
	}
	return 1
}

// Compile lays out the four compact class headers (paper §2.1). Fields
// with a requested offset are placed first; the rest are placed
// first-fit-decreasing into the remaining gaps, honouring each field's
// natural alignment but ignoring layer boundaries. Each class header is
// rounded up to a whole byte.
func (s *Schema) Compile() error {
	if s.of != nil {
		return fmt.Errorf("header: Compile on a replay view")
	}
	if s.mode != Uncompiled {
		return fmt.Errorf("header: Compile called twice")
	}
	for c := Class(0); c < NumClasses; c++ {
		var fs []*Field
		for _, f := range s.fields {
			if f.Class == c {
				fs = append(fs, f)
			}
		}
		n, err := layoutCompact(fs)
		if err != nil {
			return fmt.Errorf("header: class %s: %w", c, err)
		}
		s.size[c] = n
	}
	s.mode = Compact
	return nil
}

// layoutCompact assigns offsets to fs and returns the header size in bytes.
func layoutCompact(fs []*Field) (int, error) {
	g := newGaps()
	// Fixed-offset fields first, in registration order.
	for _, f := range fs {
		if f.WantOffset == DontCare {
			continue
		}
		if !g.take(f.WantOffset, f.SizeBits) {
			return 0, fmt.Errorf("field %s/%s: requested offset %d overlaps another fixed field",
				f.Layer, f.Name, f.WantOffset)
		}
		f.offset = f.WantOffset
	}
	// Remaining fields: first-fit-decreasing by size, registration order
	// as tiebreak for determinism.
	var free []*Field
	for _, f := range fs {
		if f.WantOffset == DontCare {
			free = append(free, f)
		}
	}
	sort.SliceStable(free, func(i, j int) bool {
		if free[i].SizeBits != free[j].SizeBits {
			return free[i].SizeBits > free[j].SizeBits
		}
		return free[i].seq < free[j].seq
	})
	for _, f := range free {
		off := g.place(f.SizeBits, alignment(f))
		f.offset = off
	}
	end := 0
	for _, f := range fs {
		if e := f.offset + f.SizeBits; e > end {
			end = e
		}
	}
	return (end + 7) / 8, nil
}

// layerAlign is the per-layer header alignment of the original Horus
// system: "each layer's header was aligned to 4 bytes" (§2.1).
const layerAlign = 32 // bits

// CompileLayered lays out the traditional baseline format: one block per
// layer in registration order, fields inside a block placed sequentially
// at their natural (C struct) alignment, each block padded to a 4-byte
// boundary, and all classes inline. Requested offsets are ignored — the
// baseline has no cross-layer coordination.
func (s *Schema) CompileLayered() error {
	if s.of != nil {
		return fmt.Errorf("header: CompileLayered on a replay view")
	}
	if s.mode != Uncompiled {
		return fmt.Errorf("header: CompileLayered called twice")
	}
	off := 0
	for _, layer := range s.layers {
		start := off
		for _, f := range s.fields {
			if f.Layer != layer {
				continue
			}
			a := alignment(f)
			if a < 8 {
				a = 8 // baseline never bit-packs
			}
			if r := off % a; r != 0 {
				off += a - r
			}
			f.offset = off
			off += f.SizeBits
		}
		if r := off % layerAlign; r != 0 {
			off += layerAlign - r
		}
		s.blkSize[layer] = (off - start) / 8
	}
	s.total = off / 8
	s.mode = Layered
	return nil
}

// LayerBlockSize returns the padded byte size of the named layer's block
// (Layered mode).
func (s *Schema) LayerBlockSize(layer string) int { return s.blkSize[layer] }

// Layers returns the layer names in registration order.
func (s *Schema) Layers() []string { return append([]string(nil), s.layers...) }

// PaddingBits returns, for Compact mode, the number of unused bits in the
// class header; for Layered mode (class ignored) the unused bits across
// the whole header.
func (s *Schema) PaddingBits(class Class) int {
	used := 0
	switch s.mode {
	case Compact:
		for _, f := range s.fields {
			if f.Class == class {
				used += f.SizeBits
			}
		}
		return s.size[class]*8 - used
	case Layered:
		for _, f := range s.fields {
			used += f.SizeBits
		}
		return s.total*8 - used
	}
	panic("header: PaddingBits on uncompiled schema")
}

// Report renders a human-readable layout summary, used by the §2 header
// overhead comparison (baseline.ExampleEndpoint_Schema).
func (s *Schema) Report() string {
	var b strings.Builder
	switch s.mode {
	case Compact:
		fmt.Fprintf(&b, "compact layout (PA):\n")
		for c := Class(0); c < NumClasses; c++ {
			fmt.Fprintf(&b, "  %-28s %3d bytes (%d padding bits)\n",
				c.String(), s.size[c], s.PaddingBits(c))
			fs := s.sortedClassFields(c)
			for _, f := range fs {
				fmt.Fprintf(&b, "    bit %4d  %-12s %-10s %d bits\n",
					f.offset, f.Layer, f.Name, f.SizeBits)
			}
		}
		fmt.Fprintf(&b, "  normal message headers: %d bytes (+8-byte preamble)\n", s.TotalSize())
	case Layered:
		fmt.Fprintf(&b, "layered layout (baseline): %d bytes total, %d padding bits\n",
			s.total, s.PaddingBits(0))
		for _, l := range s.layers {
			fmt.Fprintf(&b, "  layer %-12s %3d bytes\n", l, s.blkSize[l])
		}
	default:
		return "uncompiled schema"
	}
	return b.String()
}

func (s *Schema) sortedClassFields(c Class) []*Field {
	var fs []*Field
	for _, f := range s.fields {
		if f.Class == c {
			fs = append(fs, f)
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].offset < fs[j].offset })
	return fs
}

// gaps tracks free bit intervals during compact layout.
type gaps struct {
	// sorted, disjoint [start, end) intervals; the last extends to +inf
	// (end == -1).
	iv []interval
}

type interval struct{ start, end int }

func newGaps() *gaps { return &gaps{iv: []interval{{0, -1}}} }

// take reserves [off, off+size) exactly; it reports false on overlap with
// an existing reservation.
func (g *gaps) take(off, size int) bool {
	for i, v := range g.iv {
		if off < v.start {
			return false // starts inside a reservation
		}
		if v.end != -1 && off >= v.end {
			continue
		}
		// off is inside gap i; the whole field must fit in this gap.
		end := off + size
		if v.end != -1 && end > v.end {
			return false
		}
		g.split(i, off, end)
		return true
	}
	return false
}

// place finds the first gap that can hold size bits at the given alignment,
// reserves it, and returns the chosen offset.
func (g *gaps) place(size, align int) int {
	for i, v := range g.iv {
		off := v.start
		if r := off % align; r != 0 {
			off += align - r
		}
		end := off + size
		if v.end != -1 && end > v.end {
			continue
		}
		g.split(i, off, end)
		return off
	}
	panic("header: unbounded gap list exhausted") // unreachable: last gap is infinite
}

// split carves [off, end) out of gap i.
func (g *gaps) split(i, off, end int) {
	v := g.iv[i]
	var repl []interval
	if off > v.start {
		repl = append(repl, interval{v.start, off})
	}
	if v.end == -1 || end < v.end {
		repl = append(repl, interval{end, v.end})
	}
	g.iv = append(g.iv[:i], append(repl, g.iv[i+1:]...)...)
}
