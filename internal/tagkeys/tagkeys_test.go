package tagkeys

import (
	"testing"
	"time"
)

var epoch = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)

func testChain(period time.Duration) *Chain {
	return New(SecretFromSeed(42), epoch, period)
}

func TestDeterminism(t *testing.T) {
	a := testChain(SmartTagRotation)
	b := testChain(SmartTagRotation)
	at := epoch.Add(3 * time.Hour)
	if a.IdentityAt(at) != b.IdentityAt(at) {
		t.Error("same secret and time must yield the same identity")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(SecretFromSeed(1), epoch, SmartTagRotation)
	b := New(SecretFromSeed(2), epoch, SmartTagRotation)
	if a.IdentityAt(epoch) == b.IdentityAt(epoch) {
		t.Error("different secrets must yield different identities")
	}
}

func TestRotationSchedule(t *testing.T) {
	c := testChain(15 * time.Minute)
	id0 := c.IdentityAt(epoch)
	id0b := c.IdentityAt(epoch.Add(14 * time.Minute))
	id1 := c.IdentityAt(epoch.Add(15 * time.Minute))
	if id0 != id0b {
		t.Error("identity must be stable within a period")
	}
	if id0 == id1 {
		t.Error("identity must rotate at the period boundary")
	}
	if id0.Address == id1.Address {
		t.Error("address must rotate")
	}
}

func TestPeriodIndex(t *testing.T) {
	c := testChain(time.Hour)
	cases := []struct {
		at   time.Time
		want uint64
	}{
		{epoch, 0},
		{epoch.Add(59 * time.Minute), 0},
		{epoch.Add(time.Hour), 1},
		{epoch.Add(25 * time.Hour), 25},
		{epoch.Add(-time.Hour), 0}, // pre-epoch clamps
	}
	for _, tc := range cases {
		if got := c.PeriodIndex(tc.at); got != tc.want {
			t.Errorf("PeriodIndex(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestAddressesAreRandomStatic(t *testing.T) {
	c := testChain(SmartTagRotation)
	for p := uint64(0); p < 100; p++ {
		if !c.IdentityFor(p).Address.IsRandomStatic() {
			t.Fatalf("period %d address is not random static", p)
		}
	}
}

func TestPseudonymUniqueness(t *testing.T) {
	// Across many tags and periods, pseudonyms must be distinct (no
	// ratchet collisions at simulation scale).
	seen := make(map[[6]byte]bool)
	for seed := uint64(0); seed < 50; seed++ {
		c := New(SecretFromSeed(seed), epoch, SmartTagRotation)
		for p := uint64(0); p < 96; p++ { // one day of 15-min periods
			k := c.IdentityFor(p).Address
			if seen[k] {
				t.Fatalf("pseudonym collision at seed %d period %d", seed, p)
			}
			seen[k] = true
		}
	}
}

func TestNewPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(SecretFromSeed(1), epoch, 0)
}

func BenchmarkIdentityAt(b *testing.B) {
	c := testChain(SmartTagRotation)
	at := epoch.Add(300 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IdentityAt(at)
	}
}
