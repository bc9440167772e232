// Package bitio provides bit-granular readers and writers over byte
// slices. Binary MDL specifications describe field lengths in bits
// (paper Fig. 7: an SLP Version field is 8 bits, MessageLength 24 bits),
// so parsers and composers need sub-byte addressing.
//
// Bits are numbered most-significant first within a byte, matching
// network wire order for the protocols modelled in the paper.
//
// Every field of the shipped binary MDLs is a whole number of bytes on
// a byte boundary, so reads and writes move whole bytes there, and any
// other field a chunk of up to eight bits per byte it touches: no path
// works a bit at a time. A Writer writes after the bytes of the slice
// its caller hands it, so a composer writes straight into the buffer a
// message is sent from and nothing is copied out.
package bitio

import (
	"errors"
	"fmt"
	"slices"
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
	// (MDL fields are usually 8/16/24/32 bits on byte boundaries); any
	// other read takes a chunk of up to eight bits per byte it touches.
	var v uint64
	if r.pos%8 == 0 && n%8 == 0 {
		start := r.pos / 8
		for i := 0; i < n/8; i++ {
			v = v<<8 | uint64(r.data[start+i])
		}
		r.pos += n
		return v, nil
	}
	for n > 0 {
		off := r.pos % 8
		k := min(8-off, n)
		v = v<<k | uint64(r.data[r.pos/8]>>(8-off-k))&(1<<k-1)
		r.pos, n = r.pos+k, n-k
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

// Writer assembles bit fields after the bytes of a caller's slice —
// a composer's destination, so a message is composed straight into the
// buffer it is sent from. Positions (Len, PatchBits) count from the
// start of what the writer wrote, not from the start of the slice. The
// zero Writer writes into a new slice.
type Writer struct {
	data []byte // the caller's bytes, then the written ones
	base int    // len of the caller's bytes: where position 0 is
	pos  int    // bit position from base
}

// Init points the writer at dst: it writes after dst's bytes, into its
// spare capacity while that lasts.
func (w *Writer) Init(dst []byte) {
	w.data, w.base, w.pos = dst, len(dst), 0
}

// Bytes returns dst extended by the written bytes; a trailing partial
// byte is padded with zero bits.
func (w *Writer) Bytes() []byte { return w.data }

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.pos }

// Aligned reports whether the position is on a byte boundary.
func (w *Writer) Aligned() bool { return w.pos%8 == 0 }

// room makes capacity for bits more and returns the length they need.
// A slice too short is replaced by one of twice that length and at
// least minCap bytes, so that composing a short message into no slice
// allocates once.
func (w *Writer) room(bits int) int {
	n := w.base + (w.pos+bits+7)/8
	if n > cap(w.data) {
		w.data = slices.Grow(w.data, max(2*n, minCap)-len(w.data))
	}
	return n
}

const minCap = 64

// WriteBits writes the low n bits of v (1..64), most significant first.
func (w *Writer) WriteBits(v uint64, n int) error {
	if err := checkBits(v, n); err != nil {
		return err
	}
	// New bytes start zeroed: spare capacity may hold stale bytes, and
	// a byte's bits not written yet are its padding.
	for end := w.room(n); len(w.data) < end; {
		w.data = append(w.data, 0)
	}
	putBits(w.data[w.base:], w.pos, v, n)
	w.pos += n
	return nil
}

// WriteBytes writes whole bytes at the current position.
func (w *Writer) WriteBytes(p []byte) error {
	if w.Aligned() {
		w.room(len(p) * 8)
		w.data = append(w.data, p...)
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

// PatchBits overwrites n bits at bit position pos with the low n bits
// of v, without moving the write position. Used by composers to fill
// in length fields computed after the message body is known (paper
// §IV-A function fields such as f-length).
func (w *Writer) PatchBits(pos int, v uint64, n int) error {
	if pos < 0 || pos+n > w.pos {
		return fmt.Errorf("bitio: patch [%d,%d) outside written range [0,%d)", pos, pos+n, w.pos)
	}
	if err := checkBits(v, n); err != nil {
		return err
	}
	putBits(w.data[w.base:], pos, v, n)
	return nil
}

func checkBits(v uint64, n int) error {
	if n < 1 || n > 64 {
		return fmt.Errorf("bitio: invalid bit count %d", n)
	}
	if n < 64 && v >= 1<<uint(n) {
		return fmt.Errorf("bitio: value %d does not fit in %d bits", v, n)
	}
	return nil
}

// putBits writes the low n bits of v at bit pos of p, most significant
// first, leaving the other bits of the bytes it touches as they were:
// an aligned whole-byte width byte by byte, any other in chunks of up to
// eight bits, one per byte touched.
func putBits(p []byte, pos int, v uint64, n int) {
	if pos%8 == 0 && n%8 == 0 {
		for i := (pos+n)/8 - 1; n > 0; i, n = i-1, n-8 {
			p[i] = byte(v)
			v >>= 8
		}
		return
	}
	for n > 0 {
		off := pos % 8
		k := min(8-off, n)
		shift := 8 - off - k
		mask := byte(1<<k-1) << shift
		p[pos/8] = p[pos/8]&^mask | byte(v>>(n-k))<<shift&mask
		pos, n = pos+k, n-k
	}
}
