package sim

import (
	"math/rand"
	"strconv"
)

// FNV-1a 64-bit parameters (mirrors hash/fnv, inlined so stream seeds can
// be derived incrementally on hot paths without a heap-allocated hasher).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// StreamSeed is a partially derived stream seed: the FNV-1a hash state
// after absorbing the engine seed and any prefix of a stream name. It is
// a value type, so hot paths can cache the state for a stable prefix
// (e.g. "encounter/<tagID>/") once and extend it with the per-tick suffix
// without formatting, hashing the prefix again, or allocating.
//
// The derivation contract is frozen: for any name, the seed produced by
// Engine.StreamSeed().String(name).Seed() is identical to the seed
// Engine.RNG(name) uses, which in turn matches the historical
// fmt.Fprintf(fnv.New64a(), "%d/%s", engineSeed, name) construction.
// Draw sequences keyed by (engine seed, name) are therefore stable
// across releases.
type StreamSeed uint64

// String absorbs s into the hash state and returns the extended state.
func (h StreamSeed) String(s string) StreamSeed {
	x := uint64(h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime64
	}
	return StreamSeed(x)
}

// Bytes absorbs b into the hash state and returns the extended state.
func (h StreamSeed) Bytes(b []byte) StreamSeed {
	x := uint64(h)
	for _, c := range b {
		x = (x ^ uint64(c)) * fnvPrime64
	}
	return StreamSeed(x)
}

// Seed finalizes the state into the int64 a rand source is seeded with.
func (h StreamSeed) Seed() int64 { return int64(h) }

// StreamSeed returns the hash state of the engine-seed prefix ("<seed>/"),
// the root every named stream derives from. Extending it with a stream
// name yields the same seed RNG uses for that name.
func (e *Engine) StreamSeed() StreamSeed {
	return e.streamBase
}

// streamBase computes the engine's root hash state without fmt: the
// decimal engine seed followed by '/'.
func streamBase(seed int64) StreamSeed {
	var buf [21]byte // len("-9223372036854775808/") == 21
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = append(b, '/')
	return StreamSeed(fnvOffset64).Bytes(b)
}

// Stream is a reusable deterministic random stream: one rand.Rand whose
// source is reseeded in place, so a hot loop that needs a fresh stream
// per (entity, tick) pays no allocation after the first use. Draws after
// Reseed(s) are identical to rand.New(rand.NewSource(s)).
//
// The source is lazySource: Reseed stores the seed and nothing else, and
// each register word is computed the first time a draw reads it. A
// reseed followed by a few draws therefore costs a few word
// computations, not math/rand's 607-word fill.
//
// A Stream is not safe for concurrent use; give each goroutine its own.
type Stream struct {
	src lazySource
	rng *rand.Rand
}

// NewStream returns an unseeded stream; call Reseed before drawing.
func NewStream() *Stream {
	s := &Stream{}
	s.rng = rand.New(&s.src)
	return s
}

// Reseed re-initializes the stream to the given seed and returns the
// stream's rand.Rand, positioned exactly as a freshly constructed
// rand.New(rand.NewSource(seed)).
func (s *Stream) Reseed(seed int64) *rand.Rand {
	s.src.Seed(seed)
	return s.rng
}
