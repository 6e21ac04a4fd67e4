// The benchmark is a module of its own so that nothing outside benchmarks/
// has to know about it. Its module path sits under the repository's, which
// is what lets it import crosslayer/internal/...; the replace directive
// points that import at the checkout it is run from.
module crosslayer/benchmarks

go 1.22

require crosslayer v0.0.0

replace crosslayer => ../
