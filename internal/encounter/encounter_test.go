package encounter

import (
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

var (
	t0     = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
)

type world struct {
	engine   *sim.Engine
	plane    *Plane
	apple    *cloud.Service
	samsung  *cloud.Service
	airTag   *tag.Tag
	smartTag *tag.Tag
	// log is every report the clouds accepted, in delivery order, as
	// their Taps saw it.
	log []trace.Report
}

// buildWorld places both tags at the origin with nApple iPhones and
// nSamsung (opted-in) Galaxies at the given distance.
func buildWorld(nApple, nSamsung int, distM float64, cfg Config) *world {
	e := sim.NewEngine(t0, 42)
	var devices []*device.Device
	for i := 0; i < nApple; i++ {
		p := geo.Destination(origin, float64(i*360/max(nApple, 1)), distM)
		devices = append(devices, device.New(deviceID("iphone", i), trace.VendorApple, p, mobility.Stationary(p)))
	}
	for i := 0; i < nSamsung; i++ {
		p := geo.Destination(origin, float64(i*360/max(nSamsung, 1))+7, distM)
		d := device.New(deviceID("galaxy", i), trace.VendorSamsung, p, mobility.Stationary(p))
		d.OptedIn = true
		devices = append(devices, d)
	}
	fleet := device.NewFleet(origin, devices)
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	smart := tag.New("smarttag-1", tag.SmartTagProfile(), mobility.Stationary(origin))
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	apple.Register(air.ID)
	samsung.Register(smart.ID)
	services := map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	}
	plane := New(cfg, e, fleet, []*tag.Tag{air, smart}, services)
	w := &world{engine: e, plane: plane, apple: apple, samsung: samsung, airTag: air, smartTag: smart}
	apple.Tap = func(r trace.Report) { w.log = append(w.log, r) }
	samsung.Tap = apple.Tap
	plane.Attach(t0)
	return w
}

func deviceID(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestNearbyDevicesProduceReports(t *testing.T) {
	w := buildWorld(10, 10, 10, Config{})
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.apple.LastSeen("airtag-1"); !ok {
		t.Error("AirTag never reported despite 10 iPhones at 10 m")
	}
	if _, _, ok := w.samsung.LastSeen("smarttag-1"); !ok {
		t.Error("SmartTag never reported despite 10 Galaxies at 10 m")
	}
	heard, reported, delivered := w.plane.Stats()
	if heard == 0 || reported == 0 || delivered == 0 {
		t.Errorf("stats = %d/%d/%d", heard, reported, delivered)
	}
	if reported > heard || delivered > reported {
		t.Error("funnel must be monotone: heard >= reported >= delivered")
	}
}

func TestReportedLocationNearTag(t *testing.T) {
	w := buildWorld(10, 0, 25, Config{})
	w.engine.RunFor(time.Hour)
	pos, _, ok := w.apple.LastSeen("airtag-1")
	if !ok {
		t.Fatal("no report")
	}
	// Reported position = reporter GPS fix: within distance + GPS error.
	if d := geo.Distance(pos, origin); d > 25+40 {
		t.Errorf("reported location %.1f m from tag", d)
	}
}

func TestNoReportersNoReports(t *testing.T) {
	w := buildWorld(0, 0, 10, Config{})
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.apple.LastSeen("airtag-1"); ok {
		t.Error("report appeared with no devices")
	}
}

func TestVendorIsolation(t *testing.T) {
	// Only Samsung phones around: the AirTag must remain unreported.
	w := buildWorld(0, 10, 10, Config{})
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.apple.LastSeen("airtag-1"); ok {
		t.Error("Galaxies reported an AirTag without cross-ecosystem mode")
	}
	if _, _, ok := w.samsung.LastSeen("smarttag-1"); !ok {
		t.Error("SmartTag should be reported")
	}
}

func TestCrossEcosystem(t *testing.T) {
	w := buildWorld(0, 10, 10, Config{CrossEcosystem: true})
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.apple.LastSeen("airtag-1"); !ok {
		t.Error("cross-ecosystem mode should let Galaxies report AirTags")
	}
}

func TestOptOutSuppressesReporting(t *testing.T) {
	w := buildWorld(0, 5, 10, Config{})
	for _, d := range w.plane.fleet.Devices() {
		d.OptedIn = false
	}
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.samsung.LastSeen("smarttag-1"); ok {
		t.Error("opted-out Galaxies must not report")
	}
}

func TestOutOfRangeNoReports(t *testing.T) {
	w := buildWorld(10, 10, 500, Config{})
	w.engine.RunFor(time.Hour)
	if _, _, ok := w.apple.LastSeen("airtag-1"); ok {
		t.Error("AirTag reported from 500 m")
	}
	if _, _, ok := w.samsung.LastSeen("smarttag-1"); ok {
		t.Error("SmartTag reported from 500 m")
	}
}

func TestUpdateRateRespectsCloudCap(t *testing.T) {
	// A dense crowd saturates the per-tag rate cap: accepted reports stay
	// in the 15-20/hour plateau of Figure 4.
	w := buildWorld(200, 0, 15, Config{})
	w.engine.RunFor(2 * time.Hour)
	accepted, _ := w.apple.Stats()
	perHour := float64(accepted) / 2
	if perHour < 12 || perHour > 20 {
		t.Errorf("accepted rate = %.1f/h, want the 15-20 plateau", perHour)
	}
}

func TestSamsungAggressiveVsAppleConservative(t *testing.T) {
	// With few devices, Samsung's strategy yields clearly more reports
	// than Apple's — Figure 4's key contrast.
	w := buildWorld(8, 8, 12, Config{})
	w.engine.RunFor(3 * time.Hour)
	appleAccepted, _ := w.apple.Stats()
	samsungAccepted, _ := w.samsung.Stats()
	if samsungAccepted <= appleAccepted {
		t.Errorf("samsung=%d apple=%d: aggressive strategy should dominate at low density", samsungAccepted, appleAccepted)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, uint64, int) {
		w := buildWorld(20, 20, 20, Config{})
		w.engine.RunFor(2 * time.Hour)
		h, r, d := w.plane.Stats()
		return h, r, d, len(w.log)
	}
	h1, r1, d1, l1 := run()
	h2, r2, d2, l2 := run()
	if h1 != h2 || r1 != r2 || d1 != d2 || l1 != l2 {
		t.Errorf("replay diverged: %d/%d/%d/%d vs %d/%d/%d/%d", h1, r1, d1, l1, h2, r2, d2, l2)
	}
}

func TestReportDelayApplied(t *testing.T) {
	w := buildWorld(5, 0, 10, Config{})
	w.engine.RunFor(time.Hour)
	for _, r := range w.log {
		if r.T.Before(r.HeardAt) {
			t.Fatal("report delivered before it was heard")
		}
		if r.T.Sub(r.HeardAt) > 5*time.Minute {
			t.Fatalf("upload delay %v too long", r.T.Sub(r.HeardAt))
		}
	}
}

func TestExpectedHearProbMonotone(t *testing.T) {
	w := buildWorld(1, 0, 10, Config{})
	prev := 1.1
	for d := 1.0; d <= 150; d += 5 {
		p := w.plane.ExpectedHearProb(w.airTag, d)
		if p > prev+1e-9 {
			t.Fatalf("hear prob increased at %.0f m", d)
		}
		prev = p
	}
	if w.plane.ExpectedHearProb(w.airTag, 1) < 0.5 {
		t.Error("hear prob at 1 m should be high")
	}
	if w.plane.ExpectedHearProb(w.airTag, 1000) != 0 {
		t.Error("hear prob beyond MaxRangeM must be zero")
	}
}

func TestMaxUsefulRange(t *testing.T) {
	w := buildWorld(1, 0, 10, Config{})
	air := w.plane.MaxUsefulRange(w.airTag, 0.05)
	smart := w.plane.MaxUsefulRange(w.smartTag, 0.05)
	if air < 50 || air > 120 {
		t.Errorf("AirTag useful range = %.0f m", air)
	}
	if smart < 20 || smart > 120 {
		t.Errorf("SmartTag useful range = %.0f m", smart)
	}
}

func TestMovingTagPicksUpRoadsideDevices(t *testing.T) {
	// Tag walks past a line of stationary iPhones.
	e := sim.NewEngine(t0, 7)
	var devices []*device.Device
	for i := 0; i < 10; i++ {
		p := geo.Destination(origin, 90, float64(i)*200)
		devices = append(devices, device.New(deviceID("road", i), trace.VendorApple, p, mobility.Stationary(p)))
	}
	fleet := device.NewFleet(origin, devices)
	dest := geo.Destination(origin, 90, 2000)
	b := mobility.NewBuilder(t0, origin)
	b.MoveTo(dest, 5)
	walker := b.Build()
	air := tag.New("airtag-1", tag.AirTagProfile(), walker)
	apple := cloud.NewService(trace.VendorApple)
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, map[trace.Vendor]*cloud.Service{trace.VendorApple: apple})
	plane.Attach(t0)
	e.RunFor(30 * time.Minute)
	accepted, _ := apple.Stats()
	if accepted < 2 {
		t.Errorf("walk past 10 iPhones produced %d reports", accepted)
	}
}

// TestScanStream pins the hot path's seed derivation to the frozen
// stream-name contract: the cached per-tag prefix extended with the tick
// key must yield the exact stream RNG(scanStreamName(...)) yields — the
// byte-identity guarantee of the allocation-free rewrite.
func TestScanStream(t *testing.T) {
	w := buildWorld(3, 3, 10, Config{})
	p := w.plane
	for _, instant := range []time.Time{
		t0,
		t0.Add(30 * time.Second),
		t0.Add(12*time.Hour + 123456789*time.Nanosecond),
	} {
		for i, tg := range p.tags {
			key := []byte(instant.UTC().Format(time.RFC3339Nano))
			fast := p.scratch[0].stream.Reseed(p.tagSeed[i].Bytes(key).Seed())
			legacy := p.engine.RNG(scanStreamName(tg.ID, instant))
			for d := 0; d < 16; d++ {
				if f, l := fast.Float64(), legacy.Float64(); f != l {
					t.Fatalf("tag %s at %v draw %d: fast %v, legacy %v", tg.ID, instant, d, f, l)
				}
			}
		}
	}
}

// TestBeaconCarryUnbiased: when the scan interval is not a multiple of
// the advertising interval, the fractional expected-beacon mass carries
// across ticks instead of being truncated away every scan.
func TestBeaconCarryUnbiased(t *testing.T) {
	e := sim.NewEngine(t0, 11)
	fleet := device.NewFleet(origin, nil)
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	// 45 s scans at a 2 s advertising interval: 22.5 expected beacons per
	// tick. Truncation would count 22 per tick (a 2.2% long-run bias).
	plane := New(Config{ScanInterval: 45 * time.Second}, e, fleet, []*tag.Tag{air}, nil)
	plane.Attach(t0)
	e.RunFor(time.Hour)
	// 80 whole ticks plus the tick at t0 = 81 scans x 22.5 = 1822.5.
	got := air.BeaconsEmitted()
	if got != 1822 {
		t.Errorf("beacons after 1 h of 45 s scans = %d, want 1822 (22.5/tick carried)", got)
	}
}

// TestScanOnceAllocationFree: after warm-up, a scan tick with no
// reportable encounters allocates nothing (report delivery still
// schedules closures, so only the encounter-free path can be exactly
// zero; it is the path taken almost every tick at campaign scale).
func TestScanOnceAllocationFree(t *testing.T) {
	// Devices present but out of radio range: Near prunes them, so the
	// tick exercises formatting + candidate search without scheduling.
	w := buildWorld(50, 50, 3000, Config{})
	w.plane.ScanOnce(t0) // warm tick-key and scratch buffers
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		i++
		w.plane.ScanOnce(t0.Add(time.Duration(i) * 30 * time.Second))
	})
	if allocs != 0 {
		t.Errorf("encounter-free ScanOnce allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkScanOnceDenseCrowd(b *testing.B) {
	w := buildWorld(300, 100, 25, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.plane.ScanOnce(t0.Add(time.Duration(i) * 30 * time.Second))
	}
}

// TestPlaneBandIsRangeBand: scanTag drops a candidate outside
// p.bandDeg without a haversine, which is sound only for the band of
// the configured range (geo's TestLatBandRejectsOnlyOutOfRange).
func TestPlaneBandIsRangeBand(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	w := buildWorld(1, 0, 10, Config{})
	if want := geo.LatBandDeg(cfg.MaxRangeM); w.plane.bandDeg != want {
		t.Fatalf("plane band %v, want geo.LatBandDeg(%v) = %v", w.plane.bandDeg, cfg.MaxRangeM, want)
	}
}
