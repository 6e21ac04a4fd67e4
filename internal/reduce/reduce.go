// Package reduce implements the application-layer data-reduction mechanism:
// the reduction operator f_data_reduce(S_data, X) applied before data is
// handed to analysis, its memory-cost model Mem_data_reduce (Eq. 2), and
// the entropy-thresholded per-block reduction plan behind the paper's
// automatic down-sampling mode (§5.2.1).
package reduce

import (
	"fmt"
	"sort"

	"crosslayer/internal/entropy"
	"crosslayer/internal/field"
)

// Op selects the reduction operator.
type Op int

const (
	// Strided keeps every X-th sample along each axis (the paper's
	// "down-sampled at every 4th grid point").
	Strided Op = iota
	// Mean replaces each X³ block with its average (smoother, same ratio).
	Mean
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Strided:
		return "strided"
	case Mean:
		return "mean"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Apply reduces d by factor x with the chosen operator. Factor 1 is a copy.
func Apply(d *field.BoxData, x int, op Op) *field.BoxData {
	switch op {
	case Strided:
		return field.Downsample(d, x)
	case Mean:
		return field.DownsampleMean(d, x)
	}
	panic(fmt.Sprintf("reduce: unknown op %d", int(op)))
}

// ReducedBytes returns the payload size after reducing sdata bytes by
// factor x in three dimensions (each axis shrinks by x).
func ReducedBytes(sdata int64, x int) int64 {
	if x < 1 {
		panic(fmt.Sprintf("reduce: invalid factor %d", x))
	}
	return sdata / int64(x*x*x)
}

// MemCost returns Mem_data_reduce(S_data, X): the transient memory needed
// to perform the reduction — the input block plus the reduced output block
// (the reduction is out-of-place, as in the real implementation).
func MemCost(sdata int64, x int) int64 {
	return sdata + ReducedBytes(sdata, x)
}

// Band maps a block-entropy range to a down-sampling factor: blocks with
// entropy below Below get Factor. Bands are evaluated lowest-Below first.
type Band struct {
	Below  float64 // entropy upper bound (bits) for this band
	Factor int     // down-sampling factor applied to blocks in the band
}

// EntropyPlan chooses a per-block down-sampling factor from entropy bands:
// a block's factor is that of the first band whose Below bound exceeds the
// block entropy; blocks above every band keep full resolution (factor 1).
// This reproduces the paper's entropy-based mode where low-information
// regions are reduced aggressively and high-entropy regions are preserved.
type EntropyPlan struct {
	Bands []Band // sorted by Below ascending in NewEntropyPlan
	NBins int    // histogram resolution (default 256)
}

// NewEntropyPlan validates and sorts the bands.
func NewEntropyPlan(bands []Band, nbins int) (*EntropyPlan, error) {
	if nbins == 0 {
		nbins = 256
	}
	if nbins < 2 {
		return nil, fmt.Errorf("reduce: nbins %d too small", nbins)
	}
	sorted := append([]Band(nil), bands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Below < sorted[j].Below })
	for i, b := range sorted {
		if b.Factor < 1 {
			return nil, fmt.Errorf("reduce: band %d has invalid factor %d", i, b.Factor)
		}
	}
	return &EntropyPlan{Bands: sorted, NBins: nbins}, nil
}

// BlockDecision records the plan's choice for one block.
type BlockDecision struct {
	Entropy float64 // block entropy in bits (on the global value range)
	Factor  int     // chosen down-sampling factor
}

// Decide computes per-block entropies of component c on a common global
// value range and assigns each block its factor.
func (p *EntropyPlan) Decide(blocks []*field.BoxData, c int) []BlockDecision {
	lo, hi := globalRange(blocks, c)
	out := make([]BlockDecision, len(blocks))
	for i, b := range blocks {
		h := entropy.BlockGlobal(b, c, p.NBins, lo, hi)
		out[i] = BlockDecision{Entropy: h, Factor: 1}
		for _, band := range p.Bands {
			if h < band.Below {
				out[i].Factor = band.Factor
				break
			}
		}
	}
	return out
}

func globalRange(blocks []*field.BoxData, c int) (lo, hi float64) {
	first := true
	for _, b := range blocks {
		blo, bhi := b.MinMax(c)
		if first {
			lo, hi, first = blo, bhi, false
			continue
		}
		if blo < lo {
			lo = blo
		}
		if bhi > hi {
			hi = bhi
		}
	}
	return lo, hi
}
