package obs

// HashString is the repository's one string hash: 64-bit FNV-1a finished
// with Mix64. Plain FNV-1a clusters on short suffix-varying keys
// (sequential request IDs, estimator names, "shard/<i>" vnode labels), and
// both of its users — deterministic trace sampling and consistent-hash
// placement — live and die on avalanche quality in the top bits.
func HashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a 64 offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3 // FNV-1a 64 prime
	}
	return Mix64(h)
}

// Mix64 is the splitmix64 finalizer: a full-avalanche bijection over uint64.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
