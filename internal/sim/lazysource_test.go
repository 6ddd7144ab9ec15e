package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand is the lazy source's oracle: on 3000
// seeds — zero, negatives, multiples of the Lehmer modulus 2³¹−1 (which
// math/rand maps to its fixed fallback seed), the int64 extremes and
// random values — one reused Stream, reseeded per seed, draws exactly
// what a fresh rand.New(rand.NewSource(seed)) draws over 1500 mixed
// Float64/NormFloat64/Int63n/Uint64 calls. 1500 calls make well over
// 607 source draws, so every seed's register wraps and its rewritten
// words are read back.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, -2, 89482311, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max + 1, int32max - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max}
	pick := rand.New(rand.NewSource(2718))
	for len(seeds) < 3000 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(pick.Uint64()))
		case 1:
			seeds = append(seeds, -pick.Int63n(1<<40))
		default:
			seeds = append(seeds, pick.Int63n(1<<20)*int32max)
		}
	}
	s := NewStream()
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := s.Reseed(seed)
		for k := 0; k < 1500; k++ {
			var w, g float64
			switch k % 4 {
			case 0:
				w, g = want.Float64(), got.Float64()
			case 1:
				w, g = want.NormFloat64(), got.NormFloat64()
			case 2:
				n := int64(1+k) << (k % 50)
				w, g = float64(want.Int63n(n)), float64(got.Int63n(n))
			default:
				wu, gu := want.Uint64(), got.Uint64()
				if wu != gu {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, k, gu, wu)
				}
			}
			if w != g {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// TestLazySourceShortStreams covers the encounter plane's pattern: a
// reseed followed by only a few draws, so most register words are never
// computed and the next reseed must not see the previous seed's words.
func TestLazySourceShortStreams(t *testing.T) {
	s := NewStream()
	pick := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		seed := int64(pick.Uint64())
		want := rand.New(rand.NewSource(seed))
		got := s.Reseed(seed)
		for k := pick.Intn(8); k >= 0; k-- {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("reseed %d (seed %d): %v, math/rand %v", i, seed, g, w)
			}
		}
	}
}

func BenchmarkReseedDraws(b *testing.B) {
	const draws = 16
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		rng := rand.New(src)
		var sink float64
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
			for k := 0; k < draws; k++ {
				sink += rng.Float64()
			}
		}
		_ = sink
	})
	b.Run("lazy", func(b *testing.B) {
		s := NewStream()
		var sink float64
		for i := 0; i < b.N; i++ {
			rng := s.Reseed(int64(i))
			for k := 0; k < draws; k++ {
				sink += rng.Float64()
			}
		}
		_ = sink
	})
}
