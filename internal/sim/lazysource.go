package sim

// math/rand's additive lagged-Fibonacci generator, reseedable in O(1).
//
// rand.NewSource(seed) fills a 607-word register by running a Lehmer
// generator (x ← 48271·x mod 2³¹−1) 1,841 steps from the seed: word i
// mixes steps 21+3i, 22+3i and 23+3i with rngCooked[i]. A draw reads
// two words and writes one. The encounter plane reseeds once per (tag,
// tick) and then draws only a handful of times, so filling the whole
// register up front is almost all of its cost.
//
// lazySource keeps the seed and computes a register word the first time
// a draw touches it. Step k of the Lehmer stream is x₀·48271ᵏ mod
// 2³¹−1, so a word costs three modular multiplications against the
// precomputed power table lehmerPow. Every word a draw reads equals the
// word math/rand's eager fill would hold, so the output is bit-identical
// to rand.NewSource's (TestLazySourceMatchesMathRand).

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271
	// seedSkip is the number of Lehmer steps math/rand discards before
	// the first register word.
	seedSkip = 20
)

// lehmerPow[j] = 48271^(seedSkip+1+j) mod 2³¹−1: the multipliers of the
// three Lehmer steps behind register word i are lehmerPow[3i:3i+3].
var lehmerPow = func() (p [3 * rngLen]uint64) {
	x := uint64(1)
	for i := 0; i < seedSkip; i++ {
		x = x * lehmerA % int32max
	}
	for j := range p {
		x = x * lehmerA % int32max
		p[j] = x
	}
	return p
}()

// lazySource is a rand.Source64 whose draws equal math/rand's source
// for the same seed. Seed is O(1); each draw pays for at most the two
// register words it touches for the first time. Not safe for concurrent
// use.
type lazySource struct {
	tap, feed int
	x0        uint64                     // normalized seed: the Lehmer stream's step 0
	have      [(rngLen + 63) / 64]uint64 // bit i set once vec[i] holds register word i
	vec       [rngLen]int64
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
// The seed normalization is math/rand's.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, computing its seeded value on first
// touch.
func (s *lazySource) word(i int) int64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		p := lehmerPow[3*i : 3*i+3]
		u := int64(s.x0*p[0]%int32max) << 40
		u ^= int64(s.x0*p[1]%int32max) << 20
		u ^= int64(s.x0 * p[2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
		s.have[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value, as math/rand's source does.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
