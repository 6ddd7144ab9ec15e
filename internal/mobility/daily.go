package mobility

import (
	"math/rand"
	"time"

	"tagsim/internal/geo"
)

// RoutineConfig describes one phone-carrying resident whose daily movement
// the crowd simulation reproduces: overnight at home, weekday commutes,
// lunch walks, errands, and more outdoor time on weekends (the behavioral
// asymmetry behind the paper's Figure 5f).
type RoutineConfig struct {
	Home geo.LatLon
	// Work is the weekday destination; the zero value means no commute.
	Work geo.LatLon
	// Venues are outing destinations (cafes, shops, gyms). When empty,
	// outings go to random points within WanderRadiusM of home.
	Venues []geo.LatLon
	// WanderRadiusM bounds improvised outing destinations (default 800).
	WanderRadiusM float64
	// OutingProbWeekday / OutingProbWeekend are the per-day probabilities
	// of an evening outing (defaults 0.3 / 0.75).
	OutingProbWeekday float64
	OutingProbWeekend float64
}

func (c *RoutineConfig) defaults() {
	if c.WanderRadiusM == 0 {
		c.WanderRadiusM = 800
	}
	if c.OutingProbWeekday == 0 {
		c.OutingProbWeekday = 0.3
	}
	if c.OutingProbWeekend == 0 {
		c.OutingProbWeekend = 0.75
	}
}

// DailyRoutine generates an itinerary for the resident covering whole days
// starting at midnight of startDay (which is truncated to midnight UTC).
func DailyRoutine(rng *rand.Rand, cfg RoutineConfig, startDay time.Time, days int) *Itinerary {
	cfg.defaults()
	day0 := startDay.UTC().Truncate(24 * time.Hour)
	b := NewBuilder(day0, cfg.Home)
	travelTo := func(dest geo.LatLon) {
		if dest != b.Pos() {
			b.MoveTo(dest, travelSpeed(rng, b.Pos(), dest))
		}
	}
	pickVenue := func() geo.LatLon {
		if len(cfg.Venues) > 0 {
			return cfg.Venues[rng.Intn(len(cfg.Venues))]
		}
		return geo.Destination(cfg.Home, rng.Float64()*360, 100+rng.Float64()*cfg.WanderRadiusM)
	}

	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		date := day0.Add(dayStart)
		weekend := isWeekend(date)

		if !weekend && !cfg.Work.IsZero() {
			// Leave home between 7:30 and 9:00.
			b.StayUntil(dayStart + 7*time.Hour + 30*time.Minute + randDur(rng, 90*time.Minute))
			travelTo(cfg.Work)
			// Lunch walk half the time, 12:00-13:30.
			if rng.Float64() < 0.5 {
				lunch := dayStart + 12*time.Hour + randDur(rng, time.Hour)
				if lunch > b.Elapsed() {
					b.StayUntil(lunch)
					travelTo(geo.Destination(cfg.Work, rng.Float64()*360, 100+rng.Float64()*400))
					b.Stay(20*time.Minute + randDur(rng, 20*time.Minute))
					travelTo(cfg.Work)
				}
			}
			// Head home between 17:00 and 18:30.
			b.StayUntil(dayStart + 17*time.Hour + randDur(rng, 90*time.Minute))
			travelTo(cfg.Home)
		} else if weekend {
			// Weekend midday outing with high probability and long
			// stays: more people outdoors, more reporting encounters.
			if rng.Float64() < 0.9 {
				b.StayUntil(dayStart + 10*time.Hour + randDur(rng, 2*time.Hour))
				travelTo(pickVenue())
				b.Stay(90*time.Minute + randDur(rng, 150*time.Minute))
				travelTo(cfg.Home)
			}
		} else {
			// Weekday, no job: errands and cafe visits at midday keep
			// the venues populated during working hours too, though far
			// less than on weekends.
			if rng.Float64() < 0.35 {
				b.StayUntil(dayStart + 10*time.Hour + randDur(rng, 4*time.Hour))
				travelTo(pickVenue())
				b.Stay(time.Hour + randDur(rng, time.Hour))
				travelTo(cfg.Home)
			}
		}

		// Evening outing.
		outingProb := cfg.OutingProbWeekday
		if weekend {
			outingProb = cfg.OutingProbWeekend
		}
		if rng.Float64() < outingProb {
			out := dayStart + 19*time.Hour + randDur(rng, 2*time.Hour)
			if out > b.Elapsed() {
				b.StayUntil(out)
				travelTo(pickVenue())
				b.Stay(45*time.Minute + randDur(rng, 90*time.Minute))
				travelTo(cfg.Home)
			}
		}

		// Home (or wherever we ended up) until midnight.
		b.StayUntil(dayStart + 24*time.Hour)
	}
	return b.Build()
}

// travelSpeed picks a travel mode by distance: short hops are walked,
// medium ones occasionally jogged, long ones ride transit.
func travelSpeed(rng *rand.Rand, from, to geo.LatLon) float64 {
	d := geo.Distance(from, to)
	switch {
	case d < 600:
		return 3.5 + rng.Float64()*2 // walk, 3.5-5.5 km/h
	case d < 2000:
		if rng.Float64() < 0.15 {
			return 7 + rng.Float64()*4 // jog, 7-11 km/h
		}
		return 4 + rng.Float64()*1.5
	default:
		return 18 + rng.Float64()*22 // transit, 18-40 km/h
	}
}

func randDur(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}

func isWeekend(t time.Time) bool {
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		return true
	default:
		return false
	}
}
