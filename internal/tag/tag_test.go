package tag

import (
	"testing"
	"time"

	"tagsim/internal/ble"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/tagkeys"
	"tagsim/internal/trace"
)

var (
	epoch  = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
)

func newAirTag() *Tag {
	return New("airtag-1", AirTagProfile(), mobility.Stationary(origin))
}

func newSmartTag() *Tag {
	return New("smarttag-1", SmartTagProfile(), mobility.Stationary(origin))
}

func TestProfilesVendors(t *testing.T) {
	if AirTagProfile().Vendor != trace.VendorApple {
		t.Error("AirTag vendor wrong")
	}
	if SmartTagProfile().Vendor != trace.VendorSamsung {
		t.Error("SmartTag vendor wrong")
	}
}

// TestBatteryClaims pins the two battery facts the paper reports: both
// tags last about a year, and the SmartTag draws ~20% more than the
// AirTag.
func TestBatteryClaims(t *testing.T) {
	air := AirTagProfile()
	smart := SmartTagProfile()
	airLife := air.BatteryLife()
	smartLife := smart.BatteryLife()
	yr := 365 * 24 * time.Hour
	if airLife < 10*yr/12 || airLife > 20*yr/12 {
		t.Errorf("AirTag battery life = %.0f days, want ~1 year", airLife.Hours()/24)
	}
	if smartLife < 8*yr/12 || smartLife > 16*yr/12 {
		t.Errorf("SmartTag battery life = %.0f days, want ~1 year", smartLife.Hours()/24)
	}
	ratio := smart.MeanCurrentUA() / air.MeanCurrentUA()
	if ratio < 1.12 || ratio > 1.30 {
		t.Errorf("SmartTag/AirTag current ratio = %.2f, want ~1.2", ratio)
	}
}

func TestBatteryLifeDegenerate(t *testing.T) {
	p := Profile{AdvInterval: time.Second}
	if p.BatteryLife() != 0 {
		t.Error("zero-capacity battery should have zero life")
	}
}

// chainFor builds the pseudonym chain a tag with profile p rotates
// through while separated from its owner, as the anti-stalking scenario
// does.
func chainFor(p Profile, seed uint64) *tagkeys.Chain {
	return tagkeys.New(tagkeys.SecretFromSeed(seed), epoch, p.RotationSeparated)
}

func TestIdentityRotation(t *testing.T) {
	air := chainFor(AirTagProfile(), 1) // separated: 24 h rotation
	id0 := air.IdentityAt(epoch)
	if air.IdentityAt(epoch.Add(23*time.Hour)) != id0 {
		t.Error("identity changed within the 24 h period")
	}
	if air.IdentityAt(epoch.Add(25*time.Hour)) == id0 {
		t.Error("identity failed to rotate after 24 h")
	}

	smart := chainFor(SmartTagProfile(), 2) // 15 min rotation
	if smart.IdentityAt(epoch.Add(20*time.Minute)) == smart.IdentityAt(epoch) {
		t.Error("SmartTag identity failed to rotate after 15 min")
	}
}

func TestAdvAddressRotatesOverDays(t *testing.T) {
	air := chainFor(AirTagProfile(), 1)
	seen := map[ble.AdvAddress]bool{}
	for d := 0; d < 10; d++ {
		seen[air.IdentityAt(epoch.Add(time.Duration(d)*24*time.Hour+time.Hour)).Address] = true
	}
	if len(seen) != 10 {
		t.Errorf("10 days produced %d distinct addresses, want 10", len(seen))
	}
}

func TestExpectedBeacons(t *testing.T) {
	air := newAirTag()
	if got := air.ExpectedBeacons(time.Minute); got != 30 {
		t.Errorf("AirTag beacons/min = %v, want 30 (2 s interval)", got)
	}
	smart := newSmartTag()
	if got := smart.ExpectedBeacons(time.Minute); got != 40 {
		t.Errorf("SmartTag beacons/min = %v, want 40 (1.5 s interval)", got)
	}
	var zero Profile
	zt := Tag{Profile: zero}
	if zt.ExpectedBeacons(time.Minute) != 0 {
		t.Error("zero interval should emit nothing")
	}
}

func TestSmartTagBeaconsMoreFrequent(t *testing.T) {
	// The SmartTag's aggressive strategy includes more frequent beacons.
	if SmartTagProfile().AdvInterval >= AirTagProfile().AdvInterval {
		t.Error("SmartTag must advertise more often than AirTag")
	}
}

func TestCountBeacons(t *testing.T) {
	tg := newAirTag()
	tg.CountBeacons(100)
	tg.CountBeacons(50)
	if tg.BeaconsEmitted() != 150 {
		t.Errorf("BeaconsEmitted = %d", tg.BeaconsEmitted())
	}
}

func TestPosFollowsMobility(t *testing.T) {
	dest := geo.Destination(origin, 90, 1000)
	b := mobility.NewBuilder(epoch, origin)
	b.MoveTo(dest, 6)
	it := b.Build()
	tg := New("t", AirTagProfile(), it)
	if tg.Pos(epoch) != origin {
		t.Error("tag should start at origin")
	}
	if geo.Distance(tg.Pos(epoch.Add(time.Hour)), dest) > 1 {
		t.Error("tag should end at destination")
	}
}
