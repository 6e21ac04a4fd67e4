// Package plotfile writes and reads hierarchy snapshots — the analogue of
// Chombo's plotfiles, in this repository's own compact binary format. A
// plotfile captures the full AMR state (levels, patch layout, ownership and
// cell data) so runs can be checkpointed, diffed and post-processed.
//
// Format (little-endian):
//
//	magic    uint32 'XLPF'
//	version  uint32 (1)
//	ncomp    uint32
//	refRatio uint32
//	nranks   uint32
//	nlevels  uint32
//	per level:
//	  domain   6×int32
//	  npatches uint32
//	  per patch: owner uint32 | block (staging wire format)
package plotfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"crosslayer/internal/amr"
	"crosslayer/internal/grid"
	"crosslayer/internal/staging"
)

const magic uint32 = 0x584c5046 // "XLPF"

const formatVersion = 1

// ErrBadPlotfile reports a malformed snapshot.
var ErrBadPlotfile = errors.New("plotfile: malformed snapshot")

// Write serializes the hierarchy to w.
func Write(w io.Writer, h *amr.Hierarchy) error {
	bw := bufio.NewWriter(w)
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	writeBox := func(b grid.Box) {
		for _, v := range []int{b.Lo.X, b.Lo.Y, b.Lo.Z, b.Hi.X, b.Hi.Y, b.Hi.Z} {
			writeU32(uint32(int32(v)))
		}
	}
	writeU32(magic)
	writeU32(formatVersion)
	writeU32(uint32(h.Cfg.NComp))
	writeU32(uint32(h.Cfg.RefRatio))
	writeU32(uint32(h.Cfg.NRanks))
	writeU32(uint32(len(h.Levels)))
	for _, l := range h.Levels {
		writeBox(l.Domain)
		writeU32(uint32(len(l.Patches)))
		for _, p := range l.Patches {
			writeU32(uint32(p.Owner))
			if err := staging.EncodeBlock(bw, p.Data); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read reconstructs a hierarchy from a snapshot. The result carries the
// serialized configuration (domain, components, ratio, ranks); decomposition
// parameters not needed to interpret the data (MaxBoxSize etc.) take their
// defaults.
func Read(r io.Reader) (*amr.Hierarchy, error) {
	br := bufio.NewReader(r)
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	readBox := func() (grid.Box, error) {
		var vals [6]int
		for i := range vals {
			v, err := readU32()
			if err != nil {
				return grid.Box{}, err
			}
			vals[i] = int(int32(v))
		}
		return grid.NewBox(grid.IV(vals[0], vals[1], vals[2]), grid.IV(vals[3], vals[4], vals[5])), nil
	}

	if m, err := readU32(); err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPlotfile)
	}
	if v, err := readU32(); err != nil || v != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadPlotfile)
	}
	ncomp, err := readU32()
	if err != nil {
		return nil, err
	}
	ratio, err := readU32()
	if err != nil {
		return nil, err
	}
	nranks, err := readU32()
	if err != nil {
		return nil, err
	}
	nlevels, err := readU32()
	if err != nil {
		return nil, err
	}
	if ncomp < 1 || ncomp > 64 || ratio < 1 || ratio > 8 || nlevels < 1 || nlevels > 16 {
		return nil, fmt.Errorf("%w: implausible header (ncomp=%d ratio=%d nlevels=%d)",
			ErrBadPlotfile, ncomp, ratio, nlevels)
	}

	var levels []*amr.Level
	for li := 0; li < int(nlevels); li++ {
		domain, err := readBox()
		if err != nil {
			return nil, err
		}
		np, err := readU32()
		if err != nil {
			return nil, err
		}
		if np > 1<<20 {
			return nil, fmt.Errorf("%w: absurd patch count", ErrBadPlotfile)
		}
		lvl := &amr.Level{Domain: domain}
		for pi := 0; pi < int(np); pi++ {
			owner, err := readU32()
			if err != nil {
				return nil, err
			}
			data, err := staging.DecodeBlock(br)
			if err != nil {
				return nil, err
			}
			if data.NComp != int(ncomp) {
				return nil, fmt.Errorf("%w: patch ncomp %d != header %d", ErrBadPlotfile, data.NComp, ncomp)
			}
			lvl.Patches = append(lvl.Patches, &amr.Patch{
				Box:   data.Box,
				Data:  data,
				Owner: int(owner),
			})
		}
		levels = append(levels, lvl)
	}

	h := &amr.Hierarchy{
		Cfg: amr.Config{
			Domain:   levels[0].Domain,
			NComp:    int(ncomp),
			RefRatio: int(ratio),
			NRanks:   int(nranks),
			MaxLevel: int(nlevels) - 1,
		},
		Levels: levels,
	}
	if err := h.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlotfile, err)
	}
	return h, nil
}
