package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteAlignedByte(t *testing.T) {
	buf := make([]byte, 4)
	WriteBits(buf, 8, 8, 0xAB)
	if buf[1] != 0xAB {
		t.Fatalf("buf[1] = %#x, want 0xAB", buf[1])
	}
	if got := ReadBits(buf, 8, 8); got != 0xAB {
		t.Fatalf("ReadBits = %#x, want 0xAB", got)
	}
}

func TestWriteBitsPreservesNeighbours(t *testing.T) {
	buf := []byte{0xFF, 0xFF, 0xFF}
	WriteBits(buf, 6, 7, 0) // clears bits 6..12
	want := []byte{0xFC, 0x07, 0xFF}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("buf = %x, want %x", buf, want)
		}
	}
}

func TestSubByteFields(t *testing.T) {
	buf := make([]byte, 1)
	WriteBits(buf, 0, 1, 1)
	WriteBits(buf, 1, 1, 0)
	WriteBits(buf, 2, 3, 0b101)
	WriteBits(buf, 5, 3, 0b011)
	if buf[0] != 0b10101011 {
		t.Fatalf("buf[0] = %08b", buf[0])
	}
	if ReadBits(buf, 2, 3) != 0b101 {
		t.Fatalf("field read mismatch")
	}
}

func TestCrossByteSpan(t *testing.T) {
	buf := make([]byte, 8)
	WriteBits(buf, 3, 17, 0x1ABCD&Mask(17))
	if got := ReadBits(buf, 3, 17); got != 0x1ABCD&Mask(17) {
		t.Fatalf("got %#x", got)
	}
}

func TestFull64Unaligned(t *testing.T) {
	buf := make([]byte, 16)
	const v uint64 = 0xDEADBEEFCAFEF00D
	WriteBits(buf, 5, 64, v)
	if got := ReadBits(buf, 5, 64); got != v {
		t.Fatalf("got %#x want %#x", got, v)
	}
}

func TestZeroSize(t *testing.T) {
	buf := []byte{0xFF}
	WriteBits(buf, 4, 0, 0xFFFF)
	if buf[0] != 0xFF {
		t.Fatal("zero-size write modified buffer")
	}
	if ReadBits(buf, 4, 0) != 0 {
		t.Fatal("zero-size read non-zero")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReadBits(make([]byte, 2), 10, 8)
}

func TestSizeRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WriteBits(make([]byte, 16), 0, 65, 0)
}

func TestReadWriteUintOrders(t *testing.T) {
	for _, size := range []int{8, 16, 32, 64} {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			buf := make([]byte, 8)
			v := uint64(0x1122334455667788) & Mask(size)
			WriteUint(buf, 0, size, order, v)
			if got := ReadUint(buf, 0, size, order); got != v {
				t.Errorf("size %d order %v: got %#x want %#x", size, order, got, v)
			}
		}
	}
}

func TestEndianDiffer(t *testing.T) {
	buf := make([]byte, 4)
	WriteUint(buf, 0, 32, BigEndian, 0x01020304)
	if got := ReadUint(buf, 0, 32, LittleEndian); got != 0x04030201 {
		t.Fatalf("LE read of BE write = %#x", got)
	}
}

func TestUnalignedIgnoresOrder(t *testing.T) {
	a := make([]byte, 4)
	b := make([]byte, 4)
	WriteUint(a, 3, 12, BigEndian, 0xABC)
	WriteUint(b, 3, 12, LittleEndian, 0xABC)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unaligned writes differ by order: %x vs %x", a, b)
		}
	}
}

func TestAligned(t *testing.T) {
	cases := []struct {
		off, size int
		want      bool
	}{
		{0, 8, true}, {8, 16, true}, {16, 32, true}, {0, 64, true},
		{1, 8, false}, {0, 12, false}, {0, 24, false}, {4, 32, false},
	}
	for _, c := range cases {
		if got := aligned(c.off, c.size); got != c.want {
			t.Errorf("aligned(%d,%d) = %v, want %v", c.off, c.size, got, c.want)
		}
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 || Mask(-1) != 0 {
		t.Fatal("Mask(<=0) != 0")
	}
	if Mask(64) != ^uint64(0) || Mask(70) != ^uint64(0) {
		t.Fatal("Mask(>=64) != all ones")
	}
	if Mask(5) != 0x1F {
		t.Fatal("Mask(5) != 0x1F")
	}
}

// Property: WriteBits then ReadBits returns the masked value, at arbitrary
// offsets and sizes, without disturbing surrounding bits.
func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(v uint64, offRaw, sizeRaw uint16, fill byte) bool {
		size := int(sizeRaw%64) + 1
		off := int(offRaw % 64)
		buf := make([]byte, 16)
		for i := range buf {
			buf[i] = fill
		}
		before := make([]byte, len(buf))
		copy(before, buf)
		WriteBits(buf, off, size, v)
		if ReadBits(buf, off, size) != v&Mask(size) {
			return false
		}
		// Restore the field to its prior contents; buffer must be
		// byte-identical to the original.
		WriteBits(buf, off, size, ReadBits(before, off, size))
		for i := range buf {
			if buf[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: two disjoint fields never interfere.
func TestQuickDisjointFields(t *testing.T) {
	f := func(v1, v2 uint64, s1Raw, s2Raw uint8) bool {
		s1 := int(s1Raw%32) + 1
		s2 := int(s2Raw%32) + 1
		buf := make([]byte, 16)
		WriteBits(buf, 0, s1, v1)
		WriteBits(buf, s1, s2, v2)
		return ReadBits(buf, 0, s1) == v1&Mask(s1) &&
			ReadBits(buf, s1, s2) == v2&Mask(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadUint/WriteUint round-trip in both byte orders for all
// aligned geometries.
func TestQuickAlignedOrders(t *testing.T) {
	f := func(v uint64, sel uint8, le bool) bool {
		sizes := []int{8, 16, 32, 64}
		size := sizes[int(sel)%len(sizes)]
		order := BigEndian
		if le {
			order = LittleEndian
		}
		buf := make([]byte, 8)
		WriteUint(buf, 0, size, order, v)
		return ReadUint(buf, 0, size, order) == v&Mask(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadBitsUnaligned(b *testing.B) {
	buf := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReadBits(buf, 3, 29)
	}
}

func BenchmarkReadUintAligned32(b *testing.B) {
	buf := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReadUint(buf, 32, 32, BigEndian)
	}
}
