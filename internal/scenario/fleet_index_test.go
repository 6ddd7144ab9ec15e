package scenario

import (
	"testing"
	"time"

	"tagsim/internal/device"
	"tagsim/internal/geo"
)

// TestFleetCandidatesHoldInRange replays the radio plane's fleet query
// at every scan tick of one small wild world (two cities, a day) and a
// one-day cafeteria, and checks that the candidates contain the exact
// in-range set: every active device whose position is within the
// plane's 120 m of the tags by haversine (device.Fleet.NearBrute).
func TestFleetCandidatesHoldInRange(t *testing.T) {
	check := func(name string, f *device.Fleet, pos func(time.Time) geo.LatLon, start, end time.Time) {
		s := f.Searcher()
		devs := f.Devices()
		var cand []int32
		ticks, inRange, candidates := 0, 0, 0
		for now := start; now.Before(end); now = now.Add(30 * time.Second) {
			p := pos(now)
			cand = s.NearIndices(p, now, 120, cand[:0])
			k := 0
			for _, d := range f.NearBrute(p, now, 120, nil) {
				for k < len(cand) && devs[cand[k]] != d {
					k++
				}
				if k == len(cand) {
					t.Fatalf("%s at %v: %s is %.2f m from the tags but not a candidate",
						name, now, d.ID, geo.Distance(d.Pos(now), p))
				}
				inRange++
			}
			ticks++
			candidates += len(cand)
		}
		if inRange == 0 {
			t.Fatalf("%s: no device came within range in %d ticks", name, ticks)
		}
		t.Logf("%s: %d ticks over %d devices, %d candidates, %d in range", name, ticks, len(devs), candidates, inRange)
	}

	w := PlanWild(tinyCampaign(3, 1))[1].build()
	check("wild "+w.job.Spec.Code, w.fleet, w.itin.Pos, w.job.Start, w.end)

	c := buildCafeteria(CafeteriaConfig{Seed: 3, Days: 1})
	check("cafeteria", c.fleet, c.tags[0].Pos, c.start, c.end)
}
