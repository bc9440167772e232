package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadBitsBasic(t *testing.T) {
	r := NewReader([]byte{0b10110100, 0b01100001})
	tests := []struct {
		n    int
		want uint64
	}{
		{1, 1}, {3, 0b011}, {4, 0b0100}, {8, 0b01100001},
	}
	for i, tt := range tests {
		got, err := r.ReadBits(tt.n)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got != tt.want {
			t.Fatalf("step %d: got %b, want %b", i, got, tt.want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReadBitsErrors(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := r.ReadBits(65); err == nil {
		t.Error("n=65 should fail")
	}
	if _, err := r.ReadBits(9); !errors.Is(err, ErrShortData) {
		t.Errorf("want ErrShortData, got %v", err)
	}
}

func TestReadBytesAligned(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestReadBytesUnaligned(t *testing.T) {
	// 4-bit offset: bytes read should straddle boundaries.
	r := NewReader([]byte{0xAB, 0xCD, 0xEF})
	if _, err := r.ReadBits(4); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xBC, 0xDE}) {
		t.Fatalf("got %x", got)
	}
}

func TestSkip(t *testing.T) {
	r := NewReader([]byte{0x0F})
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x0F {
		t.Fatalf("v = %x", v)
	}
	if err := r.Skip(1); !errors.Is(err, ErrShortData) {
		t.Fatalf("skip past end: %v", err)
	}
}

func TestWriteBitsBasic(t *testing.T) {
	var w Writer
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b10100, 5); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0b10110100}) {
		t.Fatalf("got %08b", got)
	}
}

func TestWriteBitsOverflow(t *testing.T) {
	var w Writer
	if err := w.WriteBits(4, 2); err == nil {
		t.Fatal("4 does not fit in 2 bits")
	}
	if err := w.WriteBits(1, 0); err == nil {
		t.Fatal("n=0 invalid")
	}
	if err := w.WriteBits(1, 65); err == nil {
		t.Fatal("n=65 invalid")
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	var w Writer
	if err := w.WriteBits(0xA, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBytes([]byte{0xBC}); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xAB, 0xC0}) {
		t.Fatalf("got %x", got)
	}
}

func TestPatchBits(t *testing.T) {
	var w Writer
	if err := w.WriteBits(0, 16); err != nil { // placeholder
		t.Fatal(err)
	}
	if err := w.WriteBytes([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := w.PatchBits(0, 3, 16); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	want := append([]byte{0, 3}, []byte("abc")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Patch outside written range fails.
	if err := w.PatchBits(100, 1, 8); err == nil {
		t.Fatal("patch past end should fail")
	}
	if err := w.PatchBits(0, 9, 2); err == nil {
		t.Fatal("overflow patch should fail")
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%32) + 1
		type fieldSpec struct {
			v    uint64
			bits int
		}
		fields := make([]fieldSpec, n)
		var w Writer
		for i := range fields {
			bits := rng.Intn(64) + 1
			var v uint64
			if bits == 64 {
				v = rng.Uint64()
			} else {
				v = rng.Uint64() % (1 << uint(bits))
			}
			fields[i] = fieldSpec{v, bits}
			if err := w.WriteBits(v, bits); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for _, fs := range fields {
			got, err := r.ReadBits(fs.bits)
			if err != nil || got != fs.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing bytes then reading bytes is identity at any bit offset.
func TestQuickBytesRoundtripAtOffset(t *testing.T) {
	f := func(data []byte, offset uint8) bool {
		off := int(offset % 8)
		var w Writer
		if off > 0 {
			if err := w.WriteBits(0, off); err != nil {
				return false
			}
		}
		if err := w.WriteBytes(data); err != nil {
			return false
		}
		r := NewReader(w.Bytes())
		if off > 0 {
			if _, err := r.ReadBits(off); err != nil {
				return false
			}
		}
		got, err := r.ReadBytes(len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The writer writes after the bytes of the slice it is given, into its
// spare capacity (stale bytes there do not leak into partial bytes),
// and counts positions from its own first bit.
func TestWriterAppendsAfterDst(t *testing.T) {
	dst := append(make([]byte, 0, 16), 0xEE, 0xEE)
	stale := dst[:cap(dst)]
	for i := 2; i < len(stale); i++ {
		stale[i] = 0xFF
	}
	var w Writer
	w.Init(dst)
	if err := w.WriteBits(0, 16); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.PatchBits(0, 0x0102, 16); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 19 {
		t.Fatalf("Len = %d, want 19", w.Len())
	}
	got := w.Bytes()
	if want := []byte{0xEE, 0xEE, 0x01, 0x02, 0b10100000}; !bytes.Equal(got, want) {
		t.Fatalf("got %x, want %x", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("the writer copied dst instead of writing into its capacity")
	}
}

// refPutBits is the writer's reference: one bit at a time, most
// significant first, each bit set or cleared in place.
func refPutBits(p []byte, pos int, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if v>>uint(i)&1 == 1 {
			p[pos/8] |= 1 << (7 - pos%8)
		} else {
			p[pos/8] &^= 1 << (7 - pos%8)
		}
		pos++
	}
}

// WriteBits, PatchBits and ReadBits agree byte for byte with the bit
// loop at every start bit, width and value: a field written after
// start bits of background, the same field patched over a background
// that fills its bytes, and read back from the reference bytes.
func FuzzBitWriter(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint64(0xAB), uint64(0))
	f.Add(uint8(8), uint8(24), uint64(0x123456), ^uint64(0))
	f.Add(uint8(3), uint8(13), uint64(0x1ABC), uint64(0x5555555555555555))
	f.Add(uint8(7), uint8(64), ^uint64(0), uint64(0))
	f.Add(uint8(63), uint8(1), uint64(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, startArg, widthArg uint8, v, background uint64) {
		start, n := int(startArg%64), int(widthArg-1)%64+1
		if n < 64 {
			v &= 1<<uint(n) - 1
		}
		prefix := []byte{0xC3}
		size := (start + n + 7) / 8

		// WriteBits after start bits of background.
		ref := make([]byte, size)
		refPutBits(ref, 0, background>>(64-start)&(1<<uint(start)-1), start)
		refPutBits(ref, start, v, n)
		var w Writer
		w.Init(append([]byte(nil), prefix...))
		if start > 0 {
			if err := w.WriteBits(background>>(64-start)&(1<<uint(start)-1), start); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteBits(v, n); err != nil {
			t.Fatal(err)
		}
		if got := w.Bytes(); !bytes.Equal(got[:1], prefix) || !bytes.Equal(got[1:], ref) {
			t.Fatalf("WriteBits(%#x, %d) at bit %d: got %x, want %x‖%x", v, n, start, got, prefix, ref)
		}

		// ReadBits of the reference.
		r := NewReader(ref)
		if err := r.Skip(start); err != nil {
			t.Fatal(err)
		}
		if got, err := r.ReadBits(n); err != nil || got != v {
			t.Fatalf("ReadBits(%d) at bit %d: got %#x, %v, want %#x", n, start, got, err, v)
		}

		// PatchBits over a background filling every byte it touches.
		bg := make([]byte, size)
		for i := range bg {
			bg[i] = byte(background >> (8 * (i % 8)))
		}
		ref = append([]byte(nil), bg...)
		refPutBits(ref, start, v, n)
		w.Init(append([]byte(nil), prefix...))
		if err := w.WriteBytes(bg); err != nil {
			t.Fatal(err)
		}
		if err := w.PatchBits(start, v, n); err != nil {
			t.Fatal(err)
		}
		if got := w.Bytes(); !bytes.Equal(got[:1], prefix) || !bytes.Equal(got[1:], ref) {
			t.Fatalf("PatchBits(%d, %#x, %d): got %x, want %x‖%x", start, v, n, got, prefix, ref)
		}
	})
}
