package device

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

var (
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
	t0     = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
)

func newApple(id string) *Device {
	return New(id, trace.VendorApple, origin, mobility.Stationary(origin))
}

func newSamsung(id string) *Device {
	d := New(id, trace.VendorSamsung, origin, mobility.Stationary(origin))
	d.OptedIn = true
	return d
}

func TestOptInDefaults(t *testing.T) {
	if !newApple("a").OptedIn {
		t.Error("Apple devices report by default")
	}
	if New("s", trace.VendorSamsung, origin, mobility.Stationary(origin)).OptedIn {
		t.Error("Samsung devices require opt-in")
	}
}

func TestReportsMatrix(t *testing.T) {
	apple := newApple("a")
	samsung := newSamsung("s")
	other := New("o", trace.VendorOther, origin, mobility.Stationary(origin))
	other.OptedIn = true

	cases := []struct {
		dev      *Device
		tag      trace.Vendor
		combined bool
		want     bool
	}{
		{apple, trace.VendorApple, false, true},
		{apple, trace.VendorSamsung, false, false},
		{apple, trace.VendorSamsung, true, true},
		{samsung, trace.VendorSamsung, false, true},
		{samsung, trace.VendorApple, false, false},
		{samsung, trace.VendorApple, true, true},
		{other, trace.VendorApple, false, false},
		{other, trace.VendorApple, true, false},
	}
	for _, c := range cases {
		if got := c.dev.Reports(c.tag, c.combined); got != c.want {
			t.Errorf("%s reports %v (combined=%v) = %v, want %v", c.dev.ID, c.tag, c.combined, got, c.want)
		}
	}
	// Opted-out device never reports.
	apple.OptedIn = false
	if apple.Reports(trace.VendorApple, true) {
		t.Error("opted-out device must not report")
	}
}

func TestStrategyDutyCycle(t *testing.T) {
	s := AppleStrategy()
	if dc := s.DutyCycle(); math.Abs(dc-0.1) > 1e-9 {
		t.Errorf("duty cycle = %v, want 0.1", dc)
	}
	if (Strategy{}).DutyCycle() != 0 {
		t.Error("zero strategy duty cycle should be 0")
	}
	full := Strategy{ScanInterval: time.Second, ScanWindow: 2 * time.Second}
	if full.DutyCycle() != 1 {
		t.Error("duty cycle must clamp at 1")
	}
}

func TestHearProb(t *testing.T) {
	s := SamsungStrategy()
	if p := s.HearProb(40, 0.9); p < 0.97 {
		t.Errorf("hear prob with 40 beacons at 0.9 decode = %v", p)
	}
	if p := s.HearProb(0, 0.9); p != 0 {
		t.Error("no beacons, no hearing")
	}
	if p := s.HearProb(40, 0); p != 0 {
		t.Error("zero decode prob, no hearing")
	}
	// Monotone in both arguments.
	if s.HearProb(10, 0.5) >= s.HearProb(20, 0.5) {
		t.Error("hear prob must grow with beacon count")
	}
	if s.HearProb(10, 0.2) >= s.HearProb(10, 0.6) {
		t.Error("hear prob must grow with decode prob")
	}
}

func TestShouldReportCooldown(t *testing.T) {
	d := newSamsung("s")
	d.Strategy.ReportProb = 1
	d.OnlineProb = 1
	rng := rand.New(rand.NewSource(1))

	delay, ok := d.ShouldReport("tag", t0, rng)
	if !ok {
		t.Fatal("first report should pass")
	}
	if delay < d.Strategy.UploadDelayMin || delay > d.Strategy.UploadDelayMax {
		t.Errorf("delay %v outside bounds", delay)
	}
	// Within 75% of the cooldown (the minimum jittered spacing): rejected.
	if _, ok := d.ShouldReport("tag", t0.Add(d.Strategy.Cooldown/2), rng); ok {
		t.Error("report within cooldown should be suppressed")
	}
	// After 125% of the cooldown (the maximum jittered spacing): accepted.
	if _, ok := d.ShouldReport("tag", t0.Add(d.Strategy.Cooldown*5/4+time.Second), rng); !ok {
		t.Error("report after the full jittered cooldown should pass")
	}
	// Cooldowns are per tag.
	if _, ok := d.ShouldReport("other-tag", t0.Add(time.Minute), rng); !ok {
		t.Error("different tag should not share the cooldown")
	}
}

func TestShouldReportSuppression(t *testing.T) {
	d := newApple("a")
	d.Strategy.ReportProb = 0.5
	d.OnlineProb = 1
	d.Strategy.Cooldown = 0
	rng := rand.New(rand.NewSource(7))
	accepted := 0
	const n = 5000
	for i := 0; i < n; i++ {
		d.ResetCooldowns()
		if _, ok := d.ShouldReport("tag", t0.Add(time.Duration(i)*time.Hour), rng); ok {
			accepted++
		}
	}
	rate := float64(accepted) / n
	if rate < 0.44 || rate > 0.56 {
		t.Errorf("acceptance rate %v, want ~0.5", rate)
	}
}

func TestShouldReportOffline(t *testing.T) {
	d := newSamsung("s")
	d.Strategy.ReportProb = 1
	d.OnlineProb = 0
	rng := rand.New(rand.NewSource(3))
	if _, ok := d.ShouldReport("tag", t0, rng); ok {
		t.Error("offline device must not deliver reports")
	}
}

func TestGPSFixErrorDistribution(t *testing.T) {
	d := newApple("a")
	d.GPSSigmaM = 10
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const n = 3000
	for i := 0; i < n; i++ {
		fix := d.GPSFix(t0, rng)
		sum += geo.Distance(fix, origin)
	}
	mean := sum / n
	// Rayleigh mean = sigma * sqrt(pi/2) ~ 12.5 m.
	want := 10 * math.Sqrt(math.Pi/2)
	if math.Abs(mean-want) > 1.5 {
		t.Errorf("mean GPS error %.2f m, want ~%.2f", mean, want)
	}
	// Zero sigma: exact.
	d.GPSSigmaM = 0
	if d.GPSFix(t0, rng) != origin {
		t.Error("zero-sigma fix should be exact")
	}
}

func TestFleetNear(t *testing.T) {
	far := geo.Destination(origin, 90, 50000)
	devices := []*Device{
		newApple("near-stationary"),
		New("far-stationary", trace.VendorApple, far, mobility.Stationary(far)),
	}
	// A commuter whose itinerary swings within range of the query point.
	commuteEnd := geo.Destination(origin, 0, 3000)
	b := mobility.NewBuilder(t0, far)
	b.MoveTo(commuteEnd, 30)
	b.Stay(8 * time.Hour)
	commuter := New("commuter", trace.VendorApple, far, b.Build())
	devices = append(devices, commuter)

	f := NewFleet(origin, devices)
	if f.Len() != 3 {
		t.Fatalf("fleet size %d", f.Len())
	}
	got := f.Near(origin, t0, 100, nil)
	names := map[string]bool{}
	for _, d := range got {
		names[d.ID] = true
	}
	if !names["near-stationary"] {
		t.Error("nearby stationary device missed")
	}
	if names["far-stationary"] {
		t.Error("far stationary device should be pruned")
	}
	if !names["commuter"] {
		t.Error("commuter with in-range waypoints must be a candidate")
	}
}

func TestFleetNearReuseBuffer(t *testing.T) {
	f := NewFleet(origin, []*Device{newApple("a"), newSamsung("s")})
	buf := make([]*Device, 0, 8)
	buf = f.Near(origin, t0, 100, buf)
	if len(buf) != 2 {
		t.Fatalf("got %d candidates", len(buf))
	}
	buf2 := f.Near(origin, t0, 100, buf[:0])
	if len(buf2) != 2 || cap(buf2) != cap(buf) {
		t.Error("buffer reuse failed")
	}
}

func TestFleetUnknownModelFullScan(t *testing.T) {
	// A device with an unrecognized mobility model must always be a
	// candidate (index degrades safely rather than losing encounters).
	d := newApple("weird")
	d.Mobility = weirdModel{}
	f := NewFleet(origin, []*Device{d})
	if got := f.Near(geo.Destination(origin, 0, 1e6), t0, 10, nil); len(got) != 1 {
		t.Error("unbounded device must survive pruning")
	}
}

type weirdModel struct{}

func (weirdModel) Pos(time.Time) geo.LatLon { return geo.LatLon{} }

func TestFleetResetCooldowns(t *testing.T) {
	d := newSamsung("s")
	d.Strategy.ReportProb = 1
	d.OnlineProb = 1
	rng := rand.New(rand.NewSource(2))
	if _, ok := d.ShouldReport("tag", t0, rng); !ok {
		t.Fatal("first report should pass")
	}
	f := NewFleet(origin, []*Device{d})
	f.ResetCooldowns()
	if _, ok := d.ShouldReport("tag", t0.Add(time.Second), rng); !ok {
		t.Error("cooldown should be cleared after reset")
	}
}

func BenchmarkFleetNear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	devices := make([]*Device, 2000)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, rng.Float64()*8000)
		devices[i] = New("d", trace.VendorApple, home, mobility.Stationary(home))
	}
	f := NewFleet(origin, devices)
	buf := make([]*Device, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.Near(origin, t0, 100, buf[:0])
	}
}

func BenchmarkShouldReport(b *testing.B) {
	d := newSamsung("s")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ShouldReport("tag", t0.Add(time.Duration(i)*time.Hour), rng)
	}
}
