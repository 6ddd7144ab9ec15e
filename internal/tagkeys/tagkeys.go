// Package tagkeys implements the rolling pseudonym schedule location tags
// use to stay private: each tag derives a fresh advertising address every
// rotation period from a master secret that only the tag and its owner's
// vendor cloud hold.
//
// Apple derives AirTag pseudonyms from a P-224 key ratchet (SKN/SKS); this
// package substitutes an HMAC-SHA256 ratchet, which preserves the property
// the anti-stalking study depends on: pseudonyms rotate on schedule,
// defeating third-party scanners that group beacons by address, as the
// paper notes for Tracker Detect / AirGuard.
package tagkeys

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"time"

	"tagsim/internal/ble"
)

// Rotation periods used by the two ecosystems while a tag is away from
// its owner. Public measurements put the AirTag's separated-mode address
// rotation at roughly 24 h and the SmartTag's privacy ID rotation at
// 15 min.
const (
	AirTagSeparatedRotation = 24 * time.Hour
	SmartTagRotation        = 15 * time.Minute
)

// Chain is a deterministic pseudonym ratchet for one tag.
type Chain struct {
	secret [32]byte
	epoch  time.Time
	period time.Duration
}

// New creates a chain from a master secret. The period must be positive.
func New(secret [32]byte, epoch time.Time, period time.Duration) *Chain {
	if period <= 0 {
		panic("tagkeys: non-positive rotation period")
	}
	return &Chain{secret: secret, epoch: epoch, period: period}
}

// SecretFromSeed expands a short seed (e.g. a simulation RNG draw) into a
// master secret.
func SecretFromSeed(seed uint64) [32]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	return sha256.Sum256(buf[:])
}

// PeriodIndex returns the rotation counter at time t. Times before the
// epoch map to period 0.
func (c *Chain) PeriodIndex(t time.Time) uint64 {
	if t.Before(c.epoch) {
		return 0
	}
	return uint64(t.Sub(c.epoch) / c.period)
}

// material derives the 32 bytes of identity material for a period.
func (c *Chain) material(period uint64) [32]byte {
	mac := hmac.New(sha256.New, c.secret[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], period)
	mac.Write(buf[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Identity is one period's derived tag identity.
type Identity struct {
	Period  uint64
	Address ble.AdvAddress
}

// IdentityAt returns the identity in force at time t.
func (c *Chain) IdentityAt(t time.Time) Identity {
	return c.IdentityFor(c.PeriodIndex(t))
}

// IdentityFor returns the identity for an explicit period counter.
func (c *Chain) IdentityFor(period uint64) Identity {
	m := c.material(period)
	id := Identity{Period: period}
	copy(id.Address[:], m[:6])
	id.Address[0] |= 0xC0 // random static address prefix
	return id
}
