package encounter

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tagsim/internal/sim"

	"tagsim/internal/device"
	"tagsim/internal/trace"
)

// regionRun simulates a fresh many-tag world for an hour under the given
// plane config and returns everything the simulation emits: the ordered
// delivered-report log (every cloud's Tap appends to the one slice), the
// plane counters, per-tag beacon totals, and each cloud's
// accepted/dropped stats. Two runs are "the same simulation" iff all of
// it matches — the log captures event order, not just totals.
type regionRunResult struct {
	log       []trace.Report
	heard     uint64
	reported  uint64
	delivered uint64
	beacons   []uint64
	accepted  map[trace.Vendor]uint64
	dropped   map[trace.Vendor]uint64
}

func regionRun(cfg Config) regionRunResult {
	devices := benchFleet(600)
	fleet := device.NewFleet(origin, devices)
	tags, services := benchTags(16, 2000)
	e := sim.NewEngine(t0, 99)
	p := New(cfg, e, fleet, tags, services)
	defer p.Close()
	res := regionRunResult{
		beacons:  make([]uint64, len(tags)),
		accepted: map[trace.Vendor]uint64{},
		dropped:  map[trace.Vendor]uint64{},
	}
	for _, svc := range services {
		svc.Tap = func(r trace.Report) { res.log = append(res.log, r) }
	}
	p.Attach(t0)
	e.RunFor(time.Hour)
	res.heard, res.reported, res.delivered = p.Stats()
	for i, tg := range tags {
		res.beacons[i] = tg.BeaconsEmitted()
	}
	for v, svc := range services {
		res.accepted[v], res.dropped[v] = svc.Stats()
	}
	return res
}

func (r regionRunResult) equal(t *testing.T, label string, want regionRunResult) {
	t.Helper()
	if r.heard != want.heard || r.reported != want.reported || r.delivered != want.delivered {
		t.Errorf("%s: stats (%d,%d,%d), serial (%d,%d,%d)",
			label, r.heard, r.reported, r.delivered, want.heard, want.reported, want.delivered)
	}
	if !reflect.DeepEqual(r.beacons, want.beacons) {
		t.Errorf("%s: beacon totals diverge: %v vs %v", label, r.beacons, want.beacons)
	}
	if !reflect.DeepEqual(r.accepted, want.accepted) || !reflect.DeepEqual(r.dropped, want.dropped) {
		t.Errorf("%s: cloud stats diverge: %v/%v vs %v/%v",
			label, r.accepted, r.dropped, want.accepted, want.dropped)
	}
	if len(r.log) != len(want.log) {
		t.Fatalf("%s: %d delivered reports, serial %d", label, len(r.log), len(want.log))
	}
	for i := range r.log {
		if r.log[i] != want.log[i] {
			t.Fatalf("%s: delivered report %d diverges:\n got %+v\nwant %+v", label, i, r.log[i], want.log[i])
		}
	}
}

// TestRegionShardedMatchesSerial is the tentpole's correctness property:
// the region-sharded scan tick produces a byte-identical simulation at
// every worker count, including region counts that do not divide the
// grid's rows evenly. "Byte-identical" is checked as the full ordered
// delivered-report log (value equality on every field, order included)
// plus every counter the plane and clouds expose. Run under -race in CI,
// this doubles as the data-race proof for the sharded tick.
func TestRegionShardedMatchesSerial(t *testing.T) {
	serial := regionRun(Config{})
	if serial.delivered == 0 {
		t.Fatal("serial run delivered no reports; property test is vacuous")
	}
	for _, tc := range []struct{ workers, regions int }{
		{1, 0},  // workers=1: must take the serial path
		{2, 0},  // default region count (4x workers)
		{2, 3},  // odd region count
		{8, 0},  // more workers than busy regions
		{8, 7},  // odd regions, fewer than workers
		{8, 31}, // many uneven bands
	} {
		label := fmt.Sprintf("workers=%d regions=%d", tc.workers, tc.regions)
		got := regionRun(Config{ScanWorkers: tc.workers, ScanRegions: tc.regions})
		got.equal(t, label, serial)
	}
}
