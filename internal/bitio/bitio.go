// Package bitio provides bit-granular readers and writers over byte
// slices. Binary MDL specifications describe field lengths in bits
// (paper Fig. 7: an SLP Version field is 8 bits, MessageLength 24 bits),
// so parsers and composers need sub-byte addressing.
//
// Bits are numbered most-significant first within a byte, matching
// network wire order for the protocols modelled in the paper.
package bitio

import (
	"errors"
	"fmt"
	"sync"
)

// ErrShortData is returned when a read runs past the end of input.
var ErrShortData = errors.New("bitio: not enough data")

// Reader reads bit fields from a byte slice.
type Reader struct {
	data []byte
	pos  int // absolute bit position
}

// NewReader returns a Reader over data. The Reader does not copy data;
// callers must not mutate it while reading.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Init (re)points the reader at data and rewinds it — the
// allocation-free alternative to NewReader for value-embedded readers.
func (r *Reader) Init(data []byte) {
	r.data = data
	r.pos = 0
}

// Pos returns the current absolute bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.data)*8 - r.pos }

// Aligned reports whether the position is on a byte boundary.
func (r *Reader) Aligned() bool { return r.pos%8 == 0 }

// ReadBits reads n bits (1..64) as an unsigned big-endian integer.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 1 || n > 64 {
		return 0, fmt.Errorf("bitio: invalid bit count %d", n)
	}
	if r.Remaining() < n {
		return 0, fmt.Errorf("%w: need %d bits, have %d", ErrShortData, n, r.Remaining())
	}
	// Byte-aligned whole-byte reads are the overwhelmingly common case
	// (MDL fields are usually 8/16/24/32 bits on byte boundaries).
	if r.pos%8 == 0 && n%8 == 0 {
		var v uint64
		start := r.pos / 8
		for i := 0; i < n/8; i++ {
			v = v<<8 | uint64(r.data[start+i])
		}
		r.pos += n
		return v, nil
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.pos / 8
		bitIdx := 7 - r.pos%8
		bit := (r.data[byteIdx] >> bitIdx) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// ReadBytes reads a copy of n whole bytes. The read need not start
// byte-aligned; an aligned reader can hand out the bytes at Pos()/8
// and Skip them instead.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitio: negative byte count %d", n)
	}
	if r.Remaining()/8 < n {
		return nil, fmt.Errorf("%w: need %d bytes, have %d bits", ErrShortData, n, r.Remaining())
	}
	out := make([]byte, n)
	if r.Aligned() {
		start := r.pos / 8
		copy(out, r.data[start:start+n])
		r.pos += n * 8
		return out, nil
	}
	for i := 0; i < n; i++ {
		b, err := r.ReadBits(8)
		if err != nil {
			return nil, err
		}
		out[i] = byte(b)
	}
	return out, nil
}

// Skip advances the position by n bits.
func (r *Reader) Skip(n int) error {
	if r.Remaining() < n {
		return fmt.Errorf("%w: skip %d bits, have %d", ErrShortData, n, r.Remaining())
	}
	r.pos += n
	return nil
}

// Writer assembles a byte slice from bit fields.
type Writer struct {
	data []byte
	pos  int // absolute bit position
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// AcquireWriter returns an empty Writer from the pool; pair with
// ReleaseWriter. Pooled writers keep their grown buffers, so composers
// on the steady-state path stop paying per-message buffer growth.
func AcquireWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// ReleaseWriter resets w and returns it to the pool. The caller must
// not use w afterwards; what AppendBytes appended elsewhere stays valid.
func ReleaseWriter(w *Writer) {
	w.Reset()
	writerPool.Put(w)
}

// Reset rewinds the writer, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.data = w.data[:0]
	w.pos = 0
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.pos }

// Aligned reports whether the position is on a byte boundary.
func (w *Writer) Aligned() bool { return w.pos%8 == 0 }

func (w *Writer) grow(bits int) {
	needBytes := (w.pos + bits + 7) / 8
	if needBytes <= len(w.data) {
		return
	}
	if needBytes <= cap(w.data) {
		// Re-exposed capacity may hold stale bits from a previous use;
		// zero it so unwritten padding bits stay zero.
		old := len(w.data)
		w.data = w.data[:needBytes]
		for i := old; i < needBytes; i++ {
			w.data[i] = 0
		}
		return
	}
	nd := make([]byte, needBytes, max(2*needBytes, 64))
	copy(nd, w.data)
	w.data = nd
}

// WriteBits writes the low n bits of v (1..64), most significant first.
func (w *Writer) WriteBits(v uint64, n int) error {
	if n < 1 || n > 64 {
		return fmt.Errorf("bitio: invalid bit count %d", n)
	}
	if n < 64 && v >= 1<<uint(n) {
		return fmt.Errorf("bitio: value %d does not fit in %d bits", v, n)
	}
	w.grow(n)
	for i := n - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		byteIdx := w.pos / 8
		bitIdx := 7 - w.pos%8
		if bit == 1 {
			w.data[byteIdx] |= 1 << bitIdx
		} else {
			w.data[byteIdx] &^= 1 << bitIdx
		}
		w.pos++
	}
	return nil
}

// WriteBytes writes whole bytes at the current position.
func (w *Writer) WriteBytes(p []byte) error {
	if w.Aligned() {
		w.grow(len(p) * 8)
		copy(w.data[w.pos/8:], p)
		w.pos += len(p) * 8
		return nil
	}
	for _, b := range p {
		if err := w.WriteBits(uint64(b), 8); err != nil {
			return err
		}
	}
	return nil
}

// AppendBytes appends the assembled bytes to dst and returns the
// extended slice. A trailing partial byte is padded with zero bits.
func (w *Writer) AppendBytes(dst []byte) []byte {
	return append(dst, w.data[:(w.pos+7)/8]...)
}

// PatchBits overwrites n bits at absolute bit position pos with the low
// n bits of v, without moving the write position. Used by composers to
// fill in length fields computed after the message body is known
// (paper §IV-A function fields such as f-length).
func (w *Writer) PatchBits(pos int, v uint64, n int) error {
	if pos < 0 || pos+n > w.pos {
		return fmt.Errorf("bitio: patch [%d,%d) outside written range [0,%d)", pos, pos+n, w.pos)
	}
	if n < 1 || n > 64 {
		return fmt.Errorf("bitio: invalid bit count %d", n)
	}
	if n < 64 && v >= 1<<uint(n) {
		return fmt.Errorf("bitio: value %d does not fit in %d bits", v, n)
	}
	for i := n - 1; i >= 0; i-- {
		bit := byte(v>>uint(i)) & 1
		byteIdx := pos / 8
		bitIdx := 7 - pos%8
		if bit == 1 {
			w.data[byteIdx] |= 1 << bitIdx
		} else {
			w.data[byteIdx] &^= 1 << bitIdx
		}
		pos++
	}
	return nil
}
