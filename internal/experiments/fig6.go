package experiments

import (
	"fmt"
	"io"
	"sort"

	"crosslayer/internal/entropy"
	"crosslayer/internal/field"
	"crosslayer/internal/reduce"
	"crosslayer/internal/viz"
)

// Fig6Block is one finest-level data block's entropy decision.
type Fig6Block struct {
	Box      string
	Entropy  float64
	Factor   int
	TrisFull int     // isosurface triangles at full resolution
	TrisRed  int     // triangles after the entropy-chosen reduction
	RMSError float64 // upsampled-reduced vs full-resolution field error
}

// Fig6Result reproduces Fig. 6: entropy-based down-sampling of the
// Polytropic Gas density field. Shape to match: per-block entropies span a
// wide range (paper: 5.14–9.85 bits at the finest level); blocks below the
// threshold are reduced at every 4th grid point while high-entropy blocks
// keep full resolution, so the structural information (isosurface detail)
// survives where it matters.
type Fig6Result struct {
	Blocks      []Fig6Block
	MinEntropy  float64
	MaxEntropy  float64
	Threshold   float64
	KeptBlocks  int // full-resolution blocks
	RedBlocks   int // reduced blocks
	TotalFull   int64
	TotalRed    int64 // bytes after adaptive reduction
	MeanErrKept float64
	MeanErrRed  float64
}

// Fig6EntropyReduction evolves the blast to a developed state (`steps`
// steps, default 24), computes per-block entropy of the density field at
// the finest level, reduces low-entropy blocks by 4 (the paper's choice),
// and quantifies what the reduction preserved.
func Fig6EntropyReduction(steps int) *Fig6Result {
	if steps <= 0 {
		steps = 24
	}
	sim := newGasSim(16, 0)
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	h := sim.Hierarchy()
	comp := sim.AnalysisComp()
	fin := h.Level(h.FinestLevel())

	// Collect finest-level density blocks.
	var blocks []*field.BoxData
	for _, p := range fin.Patches {
		b := field.New(p.Box, 1)
		copy(b.Comp(0), p.Data.Comp(comp))
		blocks = append(blocks, b)
	}
	res := &Fig6Result{}
	if len(blocks) == 0 {
		return res
	}

	// Global-range entropies, threshold at the median (the paper uses
	// "a set of certain thresholds"; the median splits regions the same
	// qualitative way its 5.14-vs-9.21 example does).
	var lo, hi float64
	first := true
	for _, b := range blocks {
		blo, bhi := b.MinMax(0)
		if first {
			lo, hi, first = blo, bhi, false
		} else {
			if blo < lo {
				lo = blo
			}
			if bhi > hi {
				hi = bhi
			}
		}
	}
	ents := make([]float64, len(blocks))
	for i, b := range blocks {
		ents[i] = entropy.BlockGlobal(b, 0, 256, lo, hi)
	}
	sorted := append([]float64(nil), ents...)
	sort.Float64s(sorted)
	res.MinEntropy, res.MaxEntropy = sorted[0], sorted[len(sorted)-1]
	res.Threshold = sorted[len(sorted)/2]

	// Isovalue: midway through the density range captures the shock shell.
	iso := lo + 0.5*(hi-lo)
	svc := viz.NewService(iso)

	for i, b := range blocks {
		factor := 1
		if ents[i] < res.Threshold {
			factor = 4 // "down-sampled at every 4th grid point"
		}
		red := reduce.Apply(b, factor, reduce.Strided)
		res.TotalFull += b.Bytes()
		res.TotalRed += red.Bytes()

		stFull := svc.Measure([]*field.BoxData{b}, 0, 1)
		stRed := svc.Measure([]*field.BoxData{red}, 0, float64(factor))
		rms := 0.0
		if factor > 1 {
			up := field.Upsample(red, factor, b.Box)
			rms = field.RMSError(b, up, 0)
		}
		fb := Fig6Block{
			Box:      b.Box.String(),
			Entropy:  ents[i],
			Factor:   factor,
			TrisFull: stFull.Triangles,
			TrisRed:  stRed.Triangles,
			RMSError: rms,
		}
		res.Blocks = append(res.Blocks, fb)
		if factor == 1 {
			res.KeptBlocks++
			res.MeanErrKept += rms
		} else {
			res.RedBlocks++
			res.MeanErrRed += rms
		}
	}
	if res.KeptBlocks > 0 {
		res.MeanErrKept /= float64(res.KeptBlocks)
	}
	if res.RedBlocks > 0 {
		res.MeanErrRed /= float64(res.RedBlocks)
	}
	return res
}

// Print renders the per-block decisions and the preservation summary.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 6 — entropy-based down-sampling of the density field (finest level)\n")
	rows := make([][]string, 0, len(r.Blocks))
	for _, b := range r.Blocks {
		rows = append(rows, []string{
			b.Box,
			fmt.Sprintf("%.2f", b.Entropy),
			fmt.Sprint(b.Factor),
			fmt.Sprint(b.TrisFull),
			fmt.Sprint(b.TrisRed),
			fmt.Sprintf("%.4f", b.RMSError),
		})
	}
	writeTable(w, []string{"block", "H (bits)", "factor", "tris full", "tris reduced", "RMS err"}, rows)
	fmt.Fprintf(w, "entropy range: %.2f – %.2f bits; threshold %.2f\n", r.MinEntropy, r.MaxEntropy, r.Threshold)
	fmt.Fprintf(w, "blocks kept full: %d; reduced 4x: %d; bytes %.2f MB -> %.2f MB\n",
		r.KeptBlocks, r.RedBlocks, mb(r.TotalFull), mb(r.TotalRed))
	fmt.Fprintf(w, "mean RMS error: kept %.4f, reduced %.4f\n", r.MeanErrKept, r.MeanErrRed)
}
