package encounter

import (
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// TestMissingServiceDoesNotPanic: a tag whose vendor has no cloud service
// still participates in encounters; its reports just vanish.
func TestMissingServiceDoesNotPanic(t *testing.T) {
	e := sim.NewEngine(t0, 1)
	d := device.New("iphone-1", trace.VendorApple, origin, mobility.Stationary(origin))
	fleet := device.NewFleet(origin, []*device.Device{d})
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, nil) // no services at all
	plane.Attach(t0)
	e.RunFor(time.Hour)
	heard, reported, delivered := plane.Stats()
	if heard == 0 || reported == 0 {
		t.Error("encounters should still happen without a cloud")
	}
	if delivered != 0 {
		t.Error("reports cannot be delivered without a service")
	}
}

// TestInactiveDevicesInvisible: devices outside their active window never
// hear anything.
func TestInactiveDevicesInvisible(t *testing.T) {
	e := sim.NewEngine(t0, 2)
	d := device.New("iphone-1", trace.VendorApple, origin, mobility.Stationary(origin))
	d.ActiveFrom = t0.Add(2 * time.Hour)
	d.ActiveTo = t0.Add(3 * time.Hour)
	fleet := device.NewFleet(origin, []*device.Device{d})
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	svc := cloud.NewService(trace.VendorApple)
	svc.Register(air.ID)
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, map[trace.Vendor]*cloud.Service{trace.VendorApple: svc})
	plane.Attach(t0)

	e.RunFor(time.Hour) // before the window
	if heard, _, _ := plane.Stats(); heard != 0 {
		t.Fatalf("inactive device heard %d beacons", heard)
	}
	e.RunFor(90 * time.Minute) // now inside the window
	if heard, _, _ := plane.Stats(); heard == 0 {
		t.Fatal("device never woke up inside its window")
	}
	e.RunFor(30 * time.Minute) // run exactly to the window's close
	heardAtClose, _, _ := plane.Stats()
	e.RunFor(3 * time.Hour) // long after the window
	heardEnd, _, _ := plane.Stats()
	if heardEnd != heardAtClose {
		t.Error("device kept hearing after its window closed")
	}
}

// TestAllDevicesOfflineNoDeliveries: reports from offline devices are
// dropped before the cloud.
func TestAllDevicesOfflineNoDeliveries(t *testing.T) {
	e := sim.NewEngine(t0, 3)
	var devices []*device.Device
	for i := 0; i < 10; i++ {
		d := device.New(deviceID("iphone", i), trace.VendorApple, origin, mobility.Stationary(origin))
		d.OnlineProb = 0
		devices = append(devices, d)
	}
	fleet := device.NewFleet(origin, devices)
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	svc := cloud.NewService(trace.VendorApple)
	svc.Register(air.ID)
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, map[trace.Vendor]*cloud.Service{trace.VendorApple: svc})
	plane.Attach(t0)
	e.RunFor(2 * time.Hour)
	if accepted, _ := svc.Stats(); accepted != 0 {
		t.Errorf("offline fleet delivered %d reports", accepted)
	}
}

// TestBeaconAccountingGrows: the statistical emission model still counts
// beacons for battery accounting.
func TestBeaconAccountingGrows(t *testing.T) {
	e := sim.NewEngine(t0, 4)
	fleet := device.NewFleet(origin, nil)
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, nil)
	plane.Attach(t0)
	e.RunFor(time.Hour)
	// 2 s advertising interval: ~1800 beacons/hour.
	if got := air.BeaconsEmitted(); got < 1500 || got > 2100 {
		t.Errorf("beacons emitted in 1 h = %d, want ~1800", got)
	}
}

// TestStopDetachesPlane: after stop, no further encounters occur.
func TestStopDetachesPlane(t *testing.T) {
	e := sim.NewEngine(t0, 5)
	d := device.New("iphone-1", trace.VendorApple, origin, mobility.Stationary(origin))
	fleet := device.NewFleet(origin, []*device.Device{d})
	air := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(origin))
	svc := cloud.NewService(trace.VendorApple)
	svc.Register(air.ID)
	plane := New(Config{}, e, fleet, []*tag.Tag{air}, map[trace.Vendor]*cloud.Service{trace.VendorApple: svc})
	stopPlane := plane.Attach(t0)
	e.RunFor(30 * time.Minute)
	heardBefore, _, _ := plane.Stats()
	stopPlane()
	e.RunFor(2 * time.Hour)
	heardAfter, _, _ := plane.Stats()
	if heardAfter != heardBefore {
		t.Errorf("plane kept scanning after stop: %d -> %d", heardBefore, heardAfter)
	}
}
