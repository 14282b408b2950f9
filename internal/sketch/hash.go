// Package sketch implements the probabilistic summaries behind the
// approximate query tier: HyperLogLog for COUNT(DISTINCT), Count-Min
// for heavy-hitter group counts, and seeded reservoir samples of base
// row ids. In the paper's framing (LevelHeaded §III) these are just
// another annotation shape over the same relations — a lossy semiring
// fold that trades bounded error for sublinear evaluation work.
//
// Everything here is deterministic: hashing is seeded splitmix64 over
// canonicalized values (so -0.0 and +0.0 collapse and every NaN payload
// is one value, matching the engine's group pseudo-encoding), and the
// reservoir RNG is a seeded splitmix64 stream. Two builds over the same
// rows produce identical sketches, which the difftest lane relies on.
package sketch

import "math"

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit
// permutation (Steele et al.). Used both as a value-hash finalizer and
// as the reservoir RNG step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CanonFloatBits canonicalizes a float64 for hashing and grouping:
// -0.0 folds into +0.0 and every NaN payload maps to one quiet NaN,
// mirroring the engine's group pseudo-encoding.
func CanonFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// HashInt hashes an int64 value under seed.
func HashInt(seed uint64, v int64) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(v)))
}

// HashFloat hashes a float64 value under seed, canonicalized.
func HashFloat(seed uint64, f float64) uint64 {
	return splitmix64(seed ^ splitmix64(CanonFloatBits(f)))
}

// HashString hashes a string value under seed (FNV-1a folded through
// the splitmix finalizer so short strings still spread).
func HashString(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return splitmix64(seed ^ h)
}
