package staging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
	"crosslayer/internal/journal"
)

// Wire format for one block (all integers little-endian):
//
//	magic   uint32  'XLBD'
//	lo      3×int32
//	hi      3×int32
//	ncomp   uint32
//	payload ncomp×cells×float64
//	crc     uint32  CRC-32C (Castagnoli) of the payload bytes
//
// The format is self-describing enough for the staging protocol and the
// plotfile writer, and deliberately simple: a block is always rectangular
// and dense. The checksum exists because blocks cross an unreliable
// transport: a flipped payload byte is an otherwise perfectly valid
// float64, so without it corruption would pass through silently.

const blockMagic uint32 = 0x584c4244 // "XLBD"

// ErrBadBlock reports a malformed serialized block.
var ErrBadBlock = errors.New("staging: malformed serialized block")

// maxBlockValues bounds a block's values, over all its components, so that
// the block's WAL record — type byte, a key of up to maxWALKey bytes,
// version, seq and the wire block — fits journal.MaxRecordBody: a block the
// log could not frame is refused before it is stored, logged or sent. The
// same bound caps what a corrupt or hostile header can claim (≈ 32 MiB of
// payload; a 160³ single-component box fits).
const maxBlockValues = (journal.MaxRecordBody - (1 + 2 + maxWALKey + 8 + 8 + blockHeaderSize + 4)) / 8

// crcTable is the Castagnoli polynomial table the payload checksum uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// boxWireSize is the wire size of a box: lo then hi, 3×int32 each. Block
// headers and get requests both carry boxes in this form.
const boxWireSize = 24

// appendBox appends b's boxWireSize-byte wire form to dst.
func appendBox(dst []byte, b grid.Box) []byte {
	for _, v := range [6]int{b.Lo.X, b.Lo.Y, b.Lo.Z, b.Hi.X, b.Hi.Y, b.Hi.Z} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
	}
	return dst
}

// getBox unpacks src[:boxWireSize]; it inverts appendBox.
func getBox(src []byte) grid.Box {
	geti := func(i int) int { return int(int32(binary.LittleEndian.Uint32(src[4*i:]))) }
	return grid.NewBox(grid.IV(geti(0), geti(1), geti(2)), grid.IV(geti(3), geti(4), geti(5)))
}

// EncodedSize returns the wire size of a block in bytes.
func EncodedSize(d *field.BoxData) int64 {
	return blockHeaderSize + d.NumCells()*int64(d.NComp)*8 + 4
}

// blockHeaderSize is the wire size of magic, box and ncomp.
const blockHeaderSize = 4 + boxWireSize + 4

// codecChunk is the unit a block streams through: encode writes the wire
// image this many bytes at a time, and decode reads at most this far past
// the values it has filled. A multiple of 8, so values never straddle two
// chunks.
const codecChunk = 64 << 10

// decodeUpfront bounds what DecodeBlock allocates on the header's word
// alone: a payload up to this size gets its values allocated once, at their
// exact size, before any of it arrives; a larger one starts here and doubles
// as its bytes arrive.
const decodeUpfront = 256 << 10

// chunkPool holds the codec's chunks; each encode or decode borrows one for
// its duration, so neither allocates a buffer of its own.
var chunkPool = sync.Pool{New: func() any { return new([codecChunk]byte) }}

// checkBlock reports, as ErrBadBlock, a block the wire format cannot carry:
// nil, empty, or outside checkShape's bounds. EncodeBlock and every put path
// apply it before they write, store or send anything, so an acknowledged
// block is always one that recovery can decode.
func checkBlock(d *field.BoxData) error {
	if d == nil || d.Box.IsEmpty() {
		return fmt.Errorf("%w: empty block", ErrBadBlock)
	}
	return checkShape(d.Box, d.NComp)
}

// checkShape reports, as ErrBadBlock, a box and component count outside the
// wire format's bounds: 1..64 components and at most maxBlockValues values.
// Each extent is bounded before multiplying: three ~2^31 extents overflow
// the int64 cell product, so NumCells alone cannot be trusted on wire input.
func checkShape(box grid.Box, ncomp int) error {
	sz := box.Size()
	nx, ny, nz := int64(sz.X), int64(sz.Y), int64(sz.Z)
	if box.IsEmpty() || ncomp < 1 || ncomp > 64 ||
		nx > maxBlockValues || ny > maxBlockValues || nz > maxBlockValues ||
		nx*ny > maxBlockValues || nx*ny*nz*int64(ncomp) > maxBlockValues {
		return fmt.Errorf("%w: box %v ncomp %d", ErrBadBlock, box, ncomp)
	}
	return nil
}

// littleEndianHost reports whether this host lays a float64 out in memory
// as the wire's little-endian word, so that a block's values and their wire
// bytes are the same bytes.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// valueBytes views vals' memory as bytes, so the codec moves a payload with
// one copy. The view aliases the block's values, which may be stored data:
// it never outlives the call that takes it, and it is only copied from or
// into. No io.Writer or io.Reader ever sees it: writers get the pooled
// chunk, which io.Writer's contract already forbids them to retain.
func valueBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// swapWords reverses the byte order of every 8-byte word in b, whose length
// is a multiple of 8. On a big-endian host it turns native float64 bytes
// into wire bytes and back.
func swapWords(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
	}
}

// EncodeBlock writes d to w in wire format. The values are copied into the
// pooled chunk as bytes, with no per-value conversion (a big-endian host
// then swaps each word in the chunk); d itself is never written to.
func EncodeBlock(w io.Writer, d *field.BoxData) error {
	if err := checkBlock(d); err != nil {
		return err
	}
	chunk := chunkPool.Get().(*[codecChunk]byte)
	defer chunkPool.Put(chunk)
	hdr := binary.LittleEndian.AppendUint32(chunk[:0], blockMagic)
	hdr = binary.LittleEndian.AppendUint32(appendBox(hdr, d.Box), uint32(d.NComp))
	// n is how much of chunk is filled and payload where its payload bytes
	// start; every full chunk is checksummed and written as one Write.
	n, payload, crc := len(hdr), len(hdr), uint32(0)
	flush := func() error {
		crc = crc32.Update(crc, crcTable, chunk[payload:n])
		_, err := w.Write(chunk[:n])
		n, payload = 0, 0
		return err
	}
	for c := 0; c < d.NComp; c++ {
		for vals := d.Comp(c); len(vals) > 0; {
			if n == codecChunk {
				if err := flush(); err != nil {
					return err
				}
			}
			k := min(len(vals), (codecChunk-n)/8)
			out := chunk[n : n+8*k]
			copy(out, valueBytes(vals[:k]))
			if !littleEndianHost {
				swapWords(out)
			}
			n, vals = n+8*k, vals[k:]
		}
	}
	if n == codecChunk { // no room left for the trailer
		if err := flush(); err != nil {
			return err
		}
	}
	crc = crc32.Update(crc, crcTable, chunk[payload:n])
	binary.LittleEndian.PutUint32(chunk[n:], crc)
	_, err := w.Write(chunk[:n+4])
	return err
}

// DecodeBlock reads one wire-format block from r. It reads the payload a
// chunk at a time: each chunk is read, checksummed, and only then copied
// into the block's values in one copy (plus a per-word byte swap on a
// big-endian host). The values are allocated up front only up to
// decodeUpfront and grow geometrically past it as bytes arrive, never ahead
// of them, so a corrupt header claiming a huge box cannot force an
// allocation larger than a small multiple of the bytes the stream actually
// carries.
func DecodeBlock(r io.Reader) (*field.BoxData, error) {
	chunk := chunkPool.Get().(*[codecChunk]byte)
	defer chunkPool.Put(chunk)
	hdr := chunk[:blockHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != blockMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBlock)
	}
	box := getBox(hdr[4:])
	ncomp := int(binary.LittleEndian.Uint32(hdr[28:]))
	if err := checkShape(box, ncomp); err != nil {
		return nil, err
	}
	total := int(int64(ncomp) * box.NumCells())
	vals := make([]float64, 0, min(total, decodeUpfront/8))
	crc := uint32(0)
	for len(vals) < total {
		k := min(total-len(vals), codecChunk/8)
		in := chunk[:8*k]
		if _, err := io.ReadFull(r, in); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, crcTable, in)
		if len(vals)+k > cap(vals) {
			vals = append(make([]float64, 0, min(total, 2*cap(vals))), vals...)
		}
		out := valueBytes(vals[len(vals) : len(vals)+k])
		copy(out, in)
		if !littleEndianHost {
			swapWords(out)
		}
		vals = vals[:len(vals)+k]
	}
	trailer := chunk[:4]
	if _, err := io.ReadFull(r, trailer); err != nil {
		return nil, err
	}
	if crc != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadBlock)
	}
	return field.Wrap(box, ncomp, vals), nil
}
