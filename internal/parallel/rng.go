package parallel

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator; the standard way to expand one seed into many.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives the i-th child seed from a parent
// seed by one SplitMix64 step over the parent mixed with i, so distinct
// children get well-separated seeds (e.g. one per experiment repetition).
func DeriveSeed(parent int64, i int) int64 {
	x := uint64(parent) ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	return int64(splitmix64(&x))
}
