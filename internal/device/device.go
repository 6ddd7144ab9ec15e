// Package device models the location-reporting devices the tags piggyback
// on: iPhones/iPads for AirTags and Samsung Galaxy phones for SmartTags.
//
// Each device scans with a realistic duty cycle, approximates a heard
// tag's position with its own (noisy) GPS fix, and decides whether to
// upload a report according to its vendor's strategy — Samsung's
// aggressive immediate reporting versus Apple's conservative throttled
// reporting, the asymmetry behind the paper's Figure 4.
package device

import (
	"math"
	"math/rand"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// Strategy is a vendor's reporting policy.
type Strategy struct {
	// ScanInterval / ScanWindow define the BLE scan duty cycle: the radio
	// listens for ScanWindow out of every ScanInterval.
	ScanInterval time.Duration
	ScanWindow   time.Duration
	// ReportProb is the probability a heard tag is reported at all this
	// encounter (Apple suppresses a large share; Samsung reports nearly
	// always).
	ReportProb float64
	// Cooldown is the per-(device, tag) minimum time between reports.
	Cooldown time.Duration
	// UploadDelayMin/Max bound the time between hearing a beacon and the
	// report reaching the cloud (GPS fix + network + batching).
	UploadDelayMin time.Duration
	UploadDelayMax time.Duration
}

// AppleStrategy is the conservative policy: heavy suppression, long
// per-tag cooldowns, and batched uploads. Per device it contributes
// ~0.45 reports/hour, so Apple's aggregate update rate only converges to
// the cloud cap when on the order of a hundred devices are present
// (Figure 4's conservative curve).
func AppleStrategy() Strategy {
	return Strategy{
		ScanInterval:   10 * time.Second,
		ScanWindow:     1 * time.Second,
		ReportProb:     0.4,
		Cooldown:       100 * time.Minute,
		UploadDelayMin: 5 * time.Second,
		UploadDelayMax: 45 * time.Second,
	}
}

// SamsungStrategy is the aggressive policy: report almost every heard tag
// with a short cooldown and quick uploads, ~3.9 reports/hour per device,
// so the aggregate rate saturates the cloud cap with a handful of devices
// (Figure 4's aggressive curve).
func SamsungStrategy() Strategy {
	return Strategy{
		ScanInterval:   10 * time.Second,
		ScanWindow:     1 * time.Second,
		ReportProb:     0.9,
		Cooldown:       15 * time.Minute,
		UploadDelayMin: 5 * time.Second,
		UploadDelayMax: 30 * time.Second,
	}
}

// StrategyFor returns the default policy for a vendor (VendorOther devices
// never report, expressed as a zero ReportProb).
func StrategyFor(v trace.Vendor) Strategy {
	switch v {
	case trace.VendorApple:
		return AppleStrategy()
	case trace.VendorSamsung:
		return SamsungStrategy()
	default:
		return Strategy{ScanInterval: 10 * time.Second, ScanWindow: time.Second}
	}
}

// DutyCycle returns the fraction of time the scanner listens.
func (s Strategy) DutyCycle() float64 {
	if s.ScanInterval <= 0 {
		return 0
	}
	d := s.ScanWindow.Seconds() / s.ScanInterval.Seconds()
	return math.Min(d, 1)
}

// Device is one location-reporting phone.
type Device struct {
	ID     string
	Vendor trace.Vendor
	// OptedIn gates reporting: Apple enables finding by default, Samsung
	// users must opt in (the paper's explanation for the sparse Samsung
	// fleet).
	OptedIn bool
	// Home anchors the device's routine; the fleet cuts its scan
	// regions over the rows homes span.
	Home     geo.LatLon
	Mobility mobility.Model
	Strategy Strategy
	// GPSSigmaM is the 1-sigma horizontal GPS error applied to reported
	// positions.
	GPSSigmaM float64
	// OnlineProb is the probability the device has connectivity when an
	// upload is due; offline reports are dropped (phones retry for their
	// own owner, not for crowd reports).
	OnlineProb float64
	// ActiveFrom/ActiveTo bound when the device exists in the world
	// (e.g. a cafeteria visit). Zero values mean always active.
	// The fleet's hour slices read the windows each time they index an
	// hour: a device inactive for the whole hour is left out, and the
	// rest are bounded over the part of the hour they are active. A
	// query stream keeps an hour's slice until its queries leave that
	// hour, and a device's bound while its mobility model says it
	// holds, so changing a window or the model after the fleet has been
	// queried can leave them stale.
	ActiveFrom time.Time
	ActiveTo   time.Time

	// nextEligible holds, per tag, when this device may next consider
	// reporting it. Jittered scheduling keeps a crowd's attempts spread
	// out in steady state instead of synchronizing into bursts.
	nextEligible map[string]time.Time
}

// New constructs a device with sane defaults filled in.
func New(id string, vendor trace.Vendor, home geo.LatLon, m mobility.Model) *Device {
	return &Device{
		ID:           id,
		Vendor:       vendor,
		OptedIn:      vendor == trace.VendorApple, // Samsung requires opt-in
		Home:         home,
		Mobility:     m,
		Strategy:     StrategyFor(vendor),
		GPSSigmaM:    8,
		OnlineProb:   0.95,
		nextEligible: make(map[string]time.Time),
	}
}

// Pos returns the device's true position at time t.
func (d *Device) Pos(t time.Time) geo.LatLon { return d.Mobility.Pos(t) }

// Active reports whether the device exists in the world at time t.
func (d *Device) Active(t time.Time) bool {
	if !d.ActiveFrom.IsZero() && t.Before(d.ActiveFrom) {
		return false
	}
	if !d.ActiveTo.IsZero() && !t.Before(d.ActiveTo) {
		return false
	}
	return true
}

// GPSFix returns the device's position as its GPS would report it:
// the truth plus Rayleigh-distributed horizontal error.
func (d *Device) GPSFix(t time.Time, rng *rand.Rand) geo.LatLon {
	if d.GPSSigmaM <= 0 {
		return d.Pos(t)
	}
	// Two independent normal components = Rayleigh radial error.
	dx := rng.NormFloat64() * d.GPSSigmaM
	dy := rng.NormFloat64() * d.GPSSigmaM
	p := d.Pos(t)
	bearing := math.Atan2(dx, dy) * 180 / math.Pi
	return geo.Destination(p, bearing, math.Hypot(dx, dy))
}

// Reports reports whether this device relays tags of the given vendor.
// Combined mode emulates the paper's unified ecosystem in which each
// vendor's devices report the other's tags too.
func (d *Device) Reports(tagVendor trace.Vendor, combined bool) bool {
	if !d.OptedIn {
		return false
	}
	switch d.Vendor {
	case trace.VendorApple, trace.VendorSamsung:
		return combined || d.Vendor == tagVendor
	default:
		return false
	}
}

// HearProb returns the probability this device decodes at least one beacon
// from a tag over an observation window, combining the tag's advertising
// rate, the scan duty cycle, and the radio channel at distance dM.
//
// beaconsInWindow is the tag's expected beacon count over the window and
// decodeProb the per-beacon decode probability at this distance.
func (s Strategy) HearProb(beaconsInWindow, decodeProb float64) float64 {
	k := beaconsInWindow * s.DutyCycle()
	if k <= 0 || decodeProb <= 0 {
		return 0
	}
	return 1 - math.Pow(1-decodeProb, k)
}

// ShouldReport applies the vendor policy to a heard tag, mutating the
// per-tag eligibility state when it decides. The returned delay is how
// long until the report reaches the cloud.
//
// The throttle is jittered: a reporting device becomes eligible again
// after 0.75-1.25x its cooldown, and a suppressed device retries after a
// uniform fraction of half the cooldown. The jitter keeps a stationary
// crowd's attempts spread out in steady state — without it, every device
// that heard the tag's first beacon would re-synchronize one cooldown
// later, alternating report bursts with silence (which the Figure 3/4
// update-rate plateaus rule out).
func (d *Device) ShouldReport(tagID string, now time.Time, rng *rand.Rand) (delay time.Duration, ok bool) {
	var next int64
	if t, seen := d.nextEligible[tagID]; seen {
		next = t.UnixNano()
	}
	newNext, delay, ok := d.ReportDecision(now, next, rng)
	if newNext != next {
		d.nextEligible[tagID] = time.Unix(0, newNext).UTC()
	}
	return delay, ok
}

// ReportDecision is ShouldReport over caller-owned eligibility state:
// next is this (device, tag) pair's next-eligible instant in unix nanos
// (0 = never considered), and the returned newNext replaces it. The
// region-sharded scan tick uses this form — each worker owns its tags'
// eligibility slots outright, so concurrent tags never race on a shared
// device map — while ShouldReport remains the map-backed wrapper.
//
// The draw sequence and every stored instant are identical between the
// two entry points (ShouldReport delegates here), which is what keeps
// the sharded scan byte-identical to the historical serial path.
func (d *Device) ReportDecision(now time.Time, next int64, rng *rand.Rand) (newNext int64, delay time.Duration, ok bool) {
	s := d.Strategy
	nowNs := now.UnixNano()
	if next != 0 && nowNs < next {
		return next, 0, false
	}
	if rng.Float64() >= s.ReportProb {
		return nowNs + int64(time.Duration(rng.Float64()*0.5*float64(s.Cooldown))), 0, false
	}
	if rng.Float64() >= d.OnlineProb {
		// Offline: retry within a few minutes.
		return nowNs + int64(time.Duration(1+rng.Intn(4))*time.Minute), 0, false
	}
	newNext = nowNs + int64(time.Duration((0.75+0.5*rng.Float64())*float64(s.Cooldown)))
	spread := s.UploadDelayMax - s.UploadDelayMin
	delay = s.UploadDelayMin
	if spread > 0 {
		delay += time.Duration(rng.Int63n(int64(spread)))
	}
	return newNext, delay, true
}

// ResetCooldowns clears the per-tag reporting state (used when reusing
// fleets across experiment repetitions).
func (d *Device) ResetCooldowns() {
	for k := range d.nextEligible {
		delete(d.nextEligible, k)
	}
}
