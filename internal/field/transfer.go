package field

import (
	"fmt"
	"math"

	"crosslayer/internal/grid"
)

// RestrictInto writes, for every cell of region, the mean of the cell's
// fine children into coarse: the conservative restriction AMR uses to keep
// coarse levels consistent with covering fine patches. region must lie
// inside both coarse.Box and fine.Box.Coarsen(r). Children are summed x
// fastest, then y, then z, and clipped to the fine box: patches produced by
// regrid chopping may start at ratio-misaligned offsets, so a coarse cell's
// children can be partial.
func RestrictInto(coarse, fine *BoxData, r int, region grid.Box) {
	fb, fsz := fine.Box, fine.Box.Size()
	cb, csz := coarse.Box, coarse.Box.Size()
	for c := 0; c < fine.NComp; c++ {
		cc, fc := coarse.Comp(c), fine.Comp(c)
		for z := region.Lo.Z; z <= region.Hi.Z; z++ {
			z0, z1 := max(z*r, fb.Lo.Z), min(z*r+r-1, fb.Hi.Z)
			for y := region.Lo.Y; y <= region.Hi.Y; y++ {
				y0, y1 := max(y*r, fb.Lo.Y), min(y*r+r-1, fb.Hi.Y)
				co := ((z-cb.Lo.Z)*csz.Y+(y-cb.Lo.Y))*csz.X - cb.Lo.X
				for x := region.Lo.X; x <= region.Hi.X; x++ {
					x0, x1 := max(x*r, fb.Lo.X), min(x*r+r-1, fb.Hi.X)
					sum := 0.0
					for fz := z0; fz <= z1; fz++ {
						for fy := y0; fy <= y1; fy++ {
							fo := ((fz-fb.Lo.Z)*fsz.Y+(fy-fb.Lo.Y))*fsz.X - fb.Lo.X
							for _, v := range fc[fo+x0 : fo+x1+1] {
								sum += v
							}
						}
					}
					cc[co+x] = sum / float64((x1-x0+1)*(y1-y0+1)*(z1-z0+1))
				}
			}
		}
	}
}

// Prolong fills fine data over fineBox (which must coarsen into
// coarse.Box) by piecewise-constant injection of the coarse values. This is
// the initializer AMR uses when newly refined regions appear.
func Prolong(coarse *BoxData, fineBox grid.Box, r int) *BoxData {
	cb := fineBox.Coarsen(r)
	if !coarse.Box.ContainsBox(cb) {
		panic(fmt.Sprintf("field: Prolong needs coarse %v to contain %v", coarse.Box, cb))
	}
	fine := New(fineBox, coarse.NComp)
	for c := 0; c < coarse.NComp; c++ {
		fc := fine.Comp(c)
		fsz := fineBox.Size()
		for z := fineBox.Lo.Z; z <= fineBox.Hi.Z; z++ {
			for y := fineBox.Lo.Y; y <= fineBox.Hi.Y; y++ {
				for x := fineBox.Lo.X; x <= fineBox.Hi.X; x++ {
					cp := grid.IV(x, y, z).Div(r)
					fo := (z-fineBox.Lo.Z)*fsz.Y*fsz.X + (y-fineBox.Lo.Y)*fsz.X + (x - fineBox.Lo.X)
					fc[fo] = coarse.Get(cp, c)
				}
			}
		}
	}
	return fine
}

// Downsample reduces data by keeping every X-th sample along each axis
// (strided subsampling), the paper's application-layer reduction operator
// f_data_reduce(S_data, X). X=1 returns a clone. The output box is the
// input box coarsened by X; sample points are the low corner of each X³
// block, matching "down-sampled at every 4th grid point" in the paper.
func Downsample(d *BoxData, x int) *BoxData {
	if x < 1 {
		panic(fmt.Sprintf("field: invalid downsample factor %d", x))
	}
	if x == 1 {
		return d.Clone()
	}
	ob := d.Box.Coarsen(x)
	out := New(ob, d.NComp)
	for c := 0; c < d.NComp; c++ {
		oc := out.Comp(c)
		osz := ob.Size()
		for z := ob.Lo.Z; z <= ob.Hi.Z; z++ {
			for y := ob.Lo.Y; y <= ob.Hi.Y; y++ {
				for xx := ob.Lo.X; xx <= ob.Hi.X; xx++ {
					// Sample the low-corner fine cell of this coarse cell,
					// clamped into the source box (the box's low corner may
					// not be aligned to a multiple of x).
					p := grid.IV(xx*x, y*x, z*x).Max(d.Box.Lo)
					oo := (z-ob.Lo.Z)*osz.Y*osz.X + (y-ob.Lo.Y)*osz.X + (xx - ob.Lo.X)
					oc[oo] = d.Get(p, c)
				}
			}
		}
	}
	return out
}

// DownsampleMean reduces data by factor x using block averaging instead of
// strided sampling. It is used as an alternative reduction operator and by
// the error analysis in the entropy experiments.
func DownsampleMean(d *BoxData, x int) *BoxData {
	if x < 1 {
		panic(fmt.Sprintf("field: invalid downsample factor %d", x))
	}
	if x == 1 {
		return d.Clone()
	}
	ob := d.Box.Coarsen(x)
	out := New(ob, d.NComp)
	for c := 0; c < d.NComp; c++ {
		oc := out.Comp(c)
		osz := ob.Size()
		for z := ob.Lo.Z; z <= ob.Hi.Z; z++ {
			for y := ob.Lo.Y; y <= ob.Hi.Y; y++ {
				for xx := ob.Lo.X; xx <= ob.Hi.X; xx++ {
					blk := grid.NewBox(grid.IV(xx*x, y*x, z*x), grid.IV(xx*x+x-1, y*x+x-1, z*x+x-1)).
						Intersect(d.Box)
					sum, n := 0.0, 0
					blk.ForEach(func(p grid.IntVect) {
						sum += d.Get(p, c)
						n++
					})
					oo := (z-ob.Lo.Z)*osz.Y*osz.X + (y-ob.Lo.Y)*osz.X + (xx - ob.Lo.X)
					if n > 0 {
						oc[oo] = sum / float64(n)
					}
				}
			}
		}
	}
	return out
}

// Upsample expands reduced data back to the original box by
// piecewise-constant injection; used to measure reduction error against
// the full-resolution field.
func Upsample(d *BoxData, x int, target grid.Box) *BoxData {
	return Prolong(d, target, x)
}

// RMSError returns the root-mean-square difference between components c of
// a and b over the intersection of their boxes.
func RMSError(a, b *BoxData, c int) float64 {
	is := a.Box.Intersect(b.Box)
	if is.IsEmpty() {
		return 0
	}
	sum, n := 0.0, 0
	is.ForEach(func(p grid.IntVect) {
		d := a.Get(p, c) - b.Get(p, c)
		sum += d * d
		n++
	})
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
