package grid

// Space-filling-curve orderings used by the load balancer. Morton (Z-order)
// codes give a cheap locality-preserving linearization of box centers;
// boxes close on the curve are usually close in space, so contiguous curve
// segments map to ranks with decent surface-to-volume locality. This is the
// same strategy Chombo and BoxLib use for their default load balance.

// MortonCode interleaves the low 21 bits of each non-negative coordinate
// into a 63-bit Z-order code. Coordinates must be < 2^21 (≈2M cells per
// side, far beyond any domain in this repo).
func MortonCode(p IntVect) uint64 {
	return spread(uint64(p.X)) | spread(uint64(p.Y))<<1 | spread(uint64(p.Z))<<2
}

// spread inserts two zero bits between each of the low 21 bits of v.
func spread(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}
