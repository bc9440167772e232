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
	w := NewWriter()
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b10100, 5); err != nil {
		t.Fatal(err)
	}
	got := w.AppendBytes(nil)
	if !bytes.Equal(got, []byte{0b10110100}) {
		t.Fatalf("got %08b", got)
	}
}

func TestWriteBitsOverflow(t *testing.T) {
	w := NewWriter()
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
	w := NewWriter()
	if err := w.WriteBits(0xA, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBytes([]byte{0xBC}); err != nil {
		t.Fatal(err)
	}
	got := w.AppendBytes(nil)
	if !bytes.Equal(got, []byte{0xAB, 0xC0}) {
		t.Fatalf("got %x", got)
	}
}

func TestPatchBits(t *testing.T) {
	w := NewWriter()
	if err := w.WriteBits(0, 16); err != nil { // placeholder
		t.Fatal(err)
	}
	if err := w.WriteBytes([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := w.PatchBits(0, 3, 16); err != nil {
		t.Fatal(err)
	}
	got := w.AppendBytes(nil)
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
		w := NewWriter()
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
		r := NewReader(w.AppendBytes(nil))
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
		w := NewWriter()
		if off > 0 {
			if err := w.WriteBits(0, off); err != nil {
				return false
			}
		}
		if err := w.WriteBytes(data); err != nil {
			return false
		}
		r := NewReader(w.AppendBytes(nil))
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
