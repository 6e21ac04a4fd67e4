package reduce

import (
	"math/rand"
	"testing"

	"crosslayer/internal/entropy"
	"crosslayer/internal/field"
	"crosslayer/internal/grid"
)

// TestEntropyPlanMatchesFirstBandOracle is a property test of the
// entropy-based resolution selection (the paper's per-block mode, Eq. 11):
// across seeded random band sets and block populations, every decision
// must equal the first-band oracle — the lowest-bound band whose threshold
// exceeds the block's entropy, full resolution when none does — with the
// entropy measured on the population's global value range.
func TestEntropyPlanMatchesFirstBandOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		bands := make([]Band, 1+rng.Intn(4))
		for i := range bands {
			bands[i] = Band{Below: rng.Float64() * 8, Factor: 1 + rng.Intn(8)}
		}
		plan, err := NewEntropyPlan(bands, 64)
		if err != nil {
			t.Fatal(err)
		}

		blocks := make([]*field.BoxData, 2+rng.Intn(6))
		for i := range blocks {
			n := 4 + rng.Intn(5)
			b := field.New(grid.BoxFromSize(grid.IV(0, 0, 0), grid.IV(n, n, n)), 1)
			data := b.Comp(0)
			switch rng.Intn(3) {
			case 0: // constant block: zero entropy
				for j := range data {
					data[j] = 3.5
				}
			case 1: // uniform noise: high entropy
				for j := range data {
					data[j] = rng.Float64() * 100
				}
			default: // two-valued: ~1 bit
				for j := range data {
					data[j] = float64(rng.Intn(2)) * 10
				}
			}
			blocks[i] = b
		}

		decisions := plan.Decide(blocks, 0)
		if len(decisions) != len(blocks) {
			t.Fatalf("iter %d: %d decisions for %d blocks", iter, len(decisions), len(blocks))
		}

		// The oracle recomputes each block's entropy independently on the
		// global range and scans the sorted bands directly.
		lo, hi := globalRange(blocks, 0)
		for i, b := range blocks {
			h := entropy.BlockGlobal(b, 0, plan.NBins, lo, hi)
			if h != decisions[i].Entropy {
				t.Fatalf("iter %d block %d: entropy %v, decision recorded %v",
					iter, i, h, decisions[i].Entropy)
			}
			oracle := 1
			for _, band := range plan.Bands {
				if h < band.Below {
					oracle = band.Factor
					break
				}
			}
			if decisions[i].Factor != oracle {
				t.Fatalf("iter %d block %d: factor %d, oracle %d (entropy %v, bands %v)",
					iter, i, decisions[i].Factor, oracle, h, plan.Bands)
			}
		}

		// Applying the decided factors must honor the memory constraint
		// they imply: each reduced block is its original size divided by
		// the factor cubed (within integer-grid rounding, never larger).
		for i, b := range blocks {
			r := Apply(b, decisions[i].Factor, Strided)
			if r.Bytes() > b.Bytes() {
				t.Fatalf("iter %d block %d: reduction grew the block", iter, i)
			}
			if decisions[i].Factor == 1 && r.Bytes() != b.Bytes() {
				t.Fatalf("iter %d block %d: factor 1 changed the block size", iter, i)
			}
		}
	}
}
