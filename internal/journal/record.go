// Shared write-ahead record codec: the length-prefixed, CRC-32C-framed
// record layer under both the workflow step journal ("XLJ1", this package)
// and the staging space's durability WAL and snapshot files ("XSW1"/"XSS1",
// internal/staging). The framing and the strict decode cursor are exported
// here so every on-disk log in the tree shares one torn-tail-tolerant
// record discipline instead of growing private near-copies.
//
//	record := recLen uint32 (BE) | body | crc uint32 (BE)
//
// recLen counts the body bytes; crc is CRC-32C (Castagnoli) over the body.
// A record is either completely valid or, from a scanner's point of view,
// the start of a torn tail — NextRecord never guesses.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// MaxRecordBody bounds one record body; absurd length prefixes are treated
// as torn tails rather than allocation requests.
const MaxRecordBody = 32 << 20

// MaxSmallInt bounds integer fields carried as uint32 (Dec.SmallInt).
const MaxSmallInt = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordBuf frames records in place, so each body is written once, into
// the bytes that go to disk: Begin, then the rest of the body (appended, or
// through Write), then End. Every record writer frames through one it
// empties and reuses, so once grown it allocates nothing.
type RecordBuf []byte

// Write appends p to the open record's body.
func (b *RecordBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// Begin opens a record whose body starts with its type byte, and returns
// where the record starts, for End.
func (b *RecordBuf) Begin(typ byte) int {
	*b = append(*b, 0, 0, 0, 0, typ)
	return len(*b) - 5
}

// End closes the record opened at start: it fills in the length of the
// body appended since and appends the body's CRC-32C.
func (b *RecordBuf) End(start int) {
	body := (*b)[start+4:]
	binary.BigEndian.PutUint32((*b)[start:], uint32(len(body)))
	*b = binary.BigEndian.AppendUint32(*b, crc32.Checksum(body, castagnoli))
}

// NextRecord tries to carve one complete record off the front of b. Any
// defect — short length prefix, absurd length, short body, checksum
// mismatch — returns ok=false: from the scanner's point of view the rest
// of the buffer is a torn tail.
func NextRecord(b []byte) (body []byte, n int, ok bool) {
	if len(b) < 4 {
		return nil, 0, false
	}
	rl := binary.BigEndian.Uint32(b)
	if rl < 1 || rl > MaxRecordBody {
		return nil, 0, false
	}
	total := 4 + int(rl) + 4
	if len(b) < total {
		return nil, 0, false
	}
	body = b[4 : 4+rl]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[4+rl:total]) {
		return nil, 0, false
	}
	return body, total, true
}

// Records walks the complete records at the front of data in order, calling
// fn with each body (at least one byte: the record type). It stops at the
// first record NextRecord rejects — torn then reports a torn tail and good is
// the byte length of the valid prefix, the point a recovering writer
// truncates to — or at fn's first error, which it returns. Every on-disk log
// scanner in the tree is a callback on this one loop.
func Records(data []byte, fn func(body []byte) error) (good int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		body, n, ok := NextRecord(data[off:])
		if !ok {
			return int64(off), true, nil
		}
		if err := fn(body); err != nil {
			return int64(off), false, err
		}
		off += n
	}
	return int64(off), false, nil
}

// AppendString appends the codec's string form: uint16 (BE) length prefix
// followed by the raw bytes. Dec.Str inverts it.
func AppendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendBool appends the codec's boolean form (0 or 1). Dec.Bool inverts
// it, rejecting every other byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64 appends a float64 as big-endian IEEE-754 bits. Dec.F64 inverts
// it, rejecting NaN and infinities.
func AppendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// Dec is a strict cursor over one record payload: every read narrows the
// window, a short read poisons the cursor, and Done rejects leftover bytes
// so each payload has exactly one valid length. The first failure sticks;
// all later reads return zero values.
type Dec struct {
	b   []byte
	bad error // sentinel every decode error wraps (e.g. ErrBadJournal)
	err error
}

// NewDec starts a cursor over payload; decode failures wrap bad so callers
// can match the owning codec's sentinel with errors.Is.
func NewDec(payload []byte, bad error) *Dec {
	return &Dec{b: payload, bad: bad}
}

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

// Fail poisons the cursor with a formatted error wrapping the sentinel.
// Later reads return zero values; an already-failed cursor keeps its first
// error.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.bad, fmt.Sprintf(format, args...))
	}
}

// Rest consumes and returns every remaining payload byte.
func (d *Dec) Rest() []byte {
	out := d.b
	d.b = nil
	if d.err != nil {
		return nil
	}
	return out
}

// Take consumes exactly n bytes, failing the cursor when fewer remain.
func (d *Dec) Take(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.Fail("short payload")
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// fixed is Take for the fixed-width reads: a failed cursor reads zeros.
func (d *Dec) fixed(n int) []byte {
	if b := d.Take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// U8 reads one byte.
func (d *Dec) U8() uint8 { return d.fixed(1)[0] }

// U16 reads a big-endian uint16.
func (d *Dec) U16() uint16 { return binary.BigEndian.Uint16(d.fixed(2)) }

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 { return binary.BigEndian.Uint32(d.fixed(4)) }

// U64 reads a big-endian uint64.
func (d *Dec) U64() uint64 { return binary.BigEndian.Uint64(d.fixed(8)) }

// I64 reads a big-endian two's-complement int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// SmallInt reads a big-endian uint32 bounded by MaxSmallInt, the codec's
// form for non-negative counts.
func (d *Dec) SmallInt() int {
	v := d.U32()
	if v > MaxSmallInt {
		d.Fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// F64 reads a big-endian IEEE-754 float64, rejecting NaN and infinities —
// no valid payload in this tree carries a non-finite value.
func (d *Dec) F64() float64 {
	v := math.Float64frombits(d.U64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Fail("non-finite float")
	}
	return v
}

// Bool reads a boolean, rejecting every encoding other than 0 or 1.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("bad boolean")
	}
	return v == 1
}

// Str reads a length-prefixed string of at most max bytes.
func (d *Dec) Str(max int) string {
	n := int(d.U16())
	if n > max {
		d.Fail("string %d bytes (max %d)", n, max)
		return ""
	}
	return string(d.Take(n))
}

// Done rejects trailing payload bytes, returning the sticky error if the
// cursor already failed.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", d.bad, len(d.b))
	}
	return nil
}
