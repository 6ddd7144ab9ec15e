// Package tag models the location tags themselves: vendor profiles
// (advertising cadence, radio, identity rotation), beacon accounting, and
// the battery model behind the paper's observation that the SmartTag's
// more aggressive radio costs ~20% more battery while both tags still last
// about a year.
package tag

import (
	"time"

	"tagsim/internal/ble"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/tagkeys"
	"tagsim/internal/trace"
)

// Profile captures everything vendor-specific about a tag model.
type Profile struct {
	Vendor trace.Vendor
	// AdvInterval is the advertising period while separated from the
	// owner (the regime all experiments run in).
	AdvInterval time.Duration
	// TxPowerDBm is the nominal transmit power (battery accounting).
	TxPowerDBm float64
	// Channel is the calibrated propagation model for this tag's radio.
	Channel ble.Channel
	// RotationSeparated is the pseudonym rotation period while separated
	// from the owner.
	RotationSeparated time.Duration
	// Battery parameters: cell capacity and current draws.
	BatteryCapacityMAh float64
	// IdleCurrentUA is the quiescent draw in microamps.
	IdleCurrentUA float64
	// BeaconChargeUC is the charge per transmitted beacon in
	// microcoulombs, a function of TX power and beacon air time.
	BeaconChargeUC float64
}

// AirTagProfile returns the AirTag model: 2-second advertising, moderate
// TX power, 24-hour rotation when separated, on a CR2032 cell.
func AirTagProfile() Profile {
	return Profile{
		Vendor:             trace.VendorApple,
		AdvInterval:        2 * time.Second,
		TxPowerDBm:         4,
		Channel:            ble.DefaultChannel(ble.AirTagPathLoss),
		RotationSeparated:  tagkeys.AirTagSeparatedRotation,
		BatteryCapacityMAh: 220, // CR2032
		IdleCurrentUA:      12,
		BeaconChargeUC:     26,
	}
}

// SmartTagProfile returns the SmartTag model: a faster advertising cadence
// and hotter radio (the "aggressive strategy" the paper measures), paying
// for it with roughly 20% higher battery drain.
func SmartTagProfile() Profile {
	return Profile{
		Vendor:             trace.VendorSamsung,
		AdvInterval:        1500 * time.Millisecond,
		TxPowerDBm:         8,
		Channel:            ble.DefaultChannel(ble.SmartTagPathLoss),
		RotationSeparated:  tagkeys.SmartTagRotation,
		BatteryCapacityMAh: 220, // CR2032
		IdleCurrentUA:      12,
		BeaconChargeUC:     27,
	}
}

// BatteryLife estimates how long the cell lasts under continuous
// separated-mode advertising.
func (p Profile) BatteryLife() time.Duration {
	// Average current = idle + beaconCharge/advInterval.
	beaconUA := p.BeaconChargeUC / p.AdvInterval.Seconds() // uC/s = uA
	totalUA := p.IdleCurrentUA + beaconUA
	if totalUA <= 0 {
		return 0
	}
	hours := p.BatteryCapacityMAh * 1000 / totalUA
	return time.Duration(hours * float64(time.Hour))
}

// MeanCurrentUA returns the average current draw in microamps.
func (p Profile) MeanCurrentUA() float64 {
	return p.IdleCurrentUA + p.BeaconChargeUC/p.AdvInterval.Seconds()
}

// Tag is one deployed location tag.
type Tag struct {
	ID      string
	Profile Profile
	// Mobility is the tag's true movement (it rides the vantage point).
	Mobility mobility.Model

	beaconsEmitted uint64
}

// New creates a tag that moves with m.
func New(id string, profile Profile, m mobility.Model) *Tag {
	return &Tag{ID: id, Profile: profile, Mobility: m}
}

// Pos returns the tag's true position at time now.
func (t *Tag) Pos(now time.Time) geo.LatLon { return t.Mobility.Pos(now) }

// BeaconsEmitted returns how many beacons the tag has generated (for
// battery accounting in long runs).
func (t *Tag) BeaconsEmitted() uint64 { return t.beaconsEmitted }

// CountBeacons adds n emitted beacons to the tag's accounting. The
// simulator calls this from the encounter plane, which models beacon
// emission statistically rather than as one event per beacon.
func (t *Tag) CountBeacons(n uint64) { t.beaconsEmitted += n }

// ExpectedBeacons returns how many beacons the tag emits in a window — the
// statistical emission model used by the encounter plane.
func (t *Tag) ExpectedBeacons(window time.Duration) float64 {
	if t.Profile.AdvInterval <= 0 {
		return 0
	}
	return window.Seconds() / t.Profile.AdvInterval.Seconds()
}
