package staging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"crosslayer/internal/field"
	"crosslayer/internal/grid"
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

// maxWireCells bounds decoded allocations (defense against corrupt or
// hostile streams): 64M cells ≈ 512 MB for one component.
const maxWireCells = int64(64) << 20

// crcTable is the Castagnoli polynomial table the payload checksum uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// boxWireSize is the wire size of a box: lo then hi, 3×int32 each. Block
// headers and get requests both carry boxes in this form.
const boxWireSize = 24

// putBox packs b into dst[:boxWireSize].
func putBox(dst []byte, b grid.Box) {
	for i, v := range []int{b.Lo.X, b.Lo.Y, b.Lo.Z, b.Hi.X, b.Hi.Y, b.Hi.Z} {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(int32(v)))
	}
}

// getBox unpacks src[:boxWireSize]; it inverts putBox.
func getBox(src []byte) grid.Box {
	geti := func(i int) int { return int(int32(binary.LittleEndian.Uint32(src[4*i:]))) }
	return grid.NewBox(grid.IV(geti(0), geti(1), geti(2)), grid.IV(geti(3), geti(4), geti(5)))
}

// EncodedSize returns the wire size of a block in bytes.
func EncodedSize(d *field.BoxData) int64 {
	return 4 + boxWireSize + 4 + d.NumCells()*int64(d.NComp)*8 + 4
}

// EncodeBlock writes d to w in wire format.
func EncodeBlock(w io.Writer, d *field.BoxData) error {
	if d == nil || d.Box.IsEmpty() {
		return fmt.Errorf("%w: empty block", ErrBadBlock)
	}
	hdr := make([]byte, 4+boxWireSize+4)
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	putBox(hdr[4:], d.Box)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(d.NComp))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	crc := uint32(0)
	buf := make([]byte, 8*len(d.Comp(0)))
	for c := 0; c < d.NComp; c++ {
		comp := d.Comp(c)
		for i, v := range comp {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, crcTable, buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	_, err := w.Write(trailer[:])
	return err
}

// DecodeBlock reads one wire-format block from r.
func DecodeBlock(r io.Reader) (*field.BoxData, error) {
	hdr := make([]byte, 4+boxWireSize+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != blockMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadBlock)
	}
	box := getBox(hdr[4:])
	ncomp := int(binary.LittleEndian.Uint32(hdr[28:]))
	// Bound each extent before multiplying: three ~2^31 extents overflow the
	// int64 cell product, so NumCells alone cannot be trusted on wire input.
	sz := box.Size()
	nx, ny, nz := int64(sz.X), int64(sz.Y), int64(sz.Z)
	if box.IsEmpty() || ncomp < 1 || ncomp > 64 ||
		nx > maxWireCells || ny > maxWireCells || nz > maxWireCells ||
		nx*ny > maxWireCells || nx*ny*nz > maxWireCells {
		return nil, fmt.Errorf("%w: box %v ncomp %d", ErrBadBlock, box, ncomp)
	}
	// Read the payload in bounded chunks before allocating the block, so a
	// corrupt header claiming a huge box cannot force an allocation larger
	// than (a small multiple of) the bytes the stream actually carries.
	payload, err := readPayload(r, int64(ncomp)*box.NumCells()*8)
	if err != nil {
		return nil, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadBlock)
	}
	d := field.New(box, ncomp)
	cells := int(box.NumCells())
	for c := 0; c < ncomp; c++ {
		comp := d.Comp(c)
		base := c * cells * 8
		for i := range comp {
			comp[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[base+8*i:]))
		}
	}
	return d, nil
}

// readPayload reads exactly total bytes from r, growing its buffer chunk by
// chunk: the peak allocation tracks the bytes actually received, not the
// total a (possibly hostile) header claims.
func readPayload(r io.Reader, total int64) ([]byte, error) {
	const chunkSize = 64 << 10
	out := make([]byte, 0, min(total, chunkSize))
	chunk := make([]byte, chunkSize)
	for int64(len(out)) < total {
		n := min(total-int64(len(out)), chunkSize)
		m, err := io.ReadFull(r, chunk[:n])
		out = append(out, chunk[:m]...)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
