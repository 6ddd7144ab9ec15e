package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/cloud"
	"tagsim/internal/crawler"
	"tagsim/internal/device"
	"tagsim/internal/encounter"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/pipeline"
	"tagsim/internal/population"
	"tagsim/internal/runner"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
	"tagsim/internal/vantage"
)

// Samsung requires an explicit opt-in for location reporting, which the
// paper credits for the sparse Samsung fleet (Table 1's report columns).
// Opt-in is modeled as demographically correlated: phones out on the
// street and riding transit belong disproportionately to active
// SmartThings users (high opt-in), while the long tail of stay-at-home
// handsets is rarely opted in. The split reconciles the paper's two
// observations — Apple dominates raw report counts (driven by home
// neighborhoods, where iPhones are ubiquitous and Samsung reporters
// rare), yet SmartTag accuracy in the field matches AirTag's because the
// Samsung devices that are out there report aggressively.
const (
	samsungActiveOptIn   = 0.8 // ambient pedestrians, co-travelers
	samsungResidentOptIn = 0.1 // residents and home neighbors
)

// WildConfig parameterizes the in-the-wild campaign (Table 1, Figures
// 5-8): volunteers carry a vantage point with both tags through the
// configured countries.
type WildConfig struct {
	Seed      int64
	Countries []CountrySpec
	// Scale shrinks the campaign for quick runs: days and distance quotas
	// are multiplied by it (1 = the paper's full 120 days).
	Scale float64
	// DevicesPerCity sizes each city's reporting fleet (default 600).
	DevicesPerCity int
	// FleetScale multiplies every reporting-crowd size — city residents,
	// ambient pedestrians, venue staff, home neighbors, and co-traveler
	// draws — without touching the participant itinerary or geography
	// (default 1). It is the fleet-growth knob the encounter plane's
	// spatial index exists for: 10-100x fleets while the scan stays on
	// the grid-indexed hot path.
	FleetScale float64
	// CityRadiusKm bounds each synthetic city (default 2).
	CityRadiusKm float64
	// Workers bounds how many country worlds run concurrently: 0 means
	// one per CPU, 1 reproduces the historical sequential behavior.
	// Every country is a self-contained world with its own engine and
	// seed-derived RNG streams, so the output is identical for any
	// value (see internal/runner).
	Workers int
	// ScanWorkers region-shards each world's scan tick across a worker
	// pool: the fleet's spatial grid is split into contiguous row bands
	// and each tick's per-tag scans run on pooled workers, merging back
	// deterministically (0 or 1 = the serial scan; output is
	// byte-identical at any value — see encounter.Config.ScanWorkers).
	// This is within-world parallelism, orthogonal to Workers'
	// across-world fan-out.
	ScanWorkers int
	// Stream is the only exit for a world's records. When set (a
	// pipeline sized with PlanWild's job count), accepted cloud
	// reports, uploaded ground-truth fixes and crawl records publish
	// through world Index's emitter as the engine runs, and each world
	// closes its emitter when its stay ends; the caller must Wait on
	// the pipeline after RunWild returns. The worlds themselves keep
	// none of it, so without a Stream the records are simply dropped.
	// Consumers own the data: CollectWild rebuilds the raw per-country
	// datasets, experiments.NewCampaign the analysis state.
	Stream *pipeline.Pipeline
}

func (c *WildConfig) defaults() {
	if len(c.Countries) == 0 {
		c.Countries = Table1Countries()
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.DevicesPerCity <= 0 {
		c.DevicesPerCity = 600
	}
	if c.FleetScale <= 0 {
		c.FleetScale = 1
	}
	if c.CityRadiusKm <= 0 {
		c.CityRadiusKm = 2
	}
}

// scaleCount applies FleetScale to a crowd size, never dropping a crowd
// to zero. At the default scale of 1 it is the identity, so the RNG draw
// sequence — and therefore the whole campaign output — is untouched.
func (c *WildConfig) scaleCount(n int) int {
	if c.FleetScale == 1 {
		return n
	}
	scaled := int(float64(n)*c.FleetScale + 0.5)
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// CountryResult is one country's campaign output.
type CountryResult struct {
	Spec CountrySpec
	// Days actually simulated after scaling.
	Days int
	// Start/End bound the stay.
	Start, End time.Time
	// Dataset holds the vantage ground truth and both crawler logs. A
	// world leaves it nil; the consumer that received the world's
	// stream attaches it (see WildResult.Attach): raw logs from
	// CollectWild, distinct crawl records from experiments.NewCampaign.
	Dataset *analysis.Dataset
	// AppleNow/SamsungNow are Table 1's "# Report" columns: crawl polls
	// that showed the tag as seen "Now".
	AppleNow, SamsungNow int
	// KmByClass decomposes the vantage distance per speed class.
	KmByClass map[mobility.SpeedClass]float64
	// Population is the primary city's density raster (Figures 6-7).
	Population *population.Map
	// Homes are the participant's detected overnight locations,
	// attached with Dataset.
	Homes []geo.LatLon
}

// WildResult is the whole campaign.
type WildResult struct {
	Countries []CountryResult
}

// Span returns the campaign time range.
func (w *WildResult) Span() (from, to time.Time) {
	if len(w.Countries) == 0 {
		return time.Time{}, time.Time{}
	}
	return w.Countries[0].Start, w.Countries[len(w.Countries)-1].End
}

// CountryJob is one self-contained, schedulable unit of the campaign: a
// single country's world, with everything needed to build and run it.
// Jobs carry no shared mutable state — each builds its own sim.Engine
// seeded from (Seed, Index) — so the pool may execute them in any
// interleaving and the results are identical to a sequential run.
type CountryJob struct {
	Cfg   WildConfig
	Spec  CountrySpec
	Index int
	// Start opens this country's time window; windows are consecutive
	// and disjoint across the campaign.
	Start time.Time
	// Days is the stay length after scaling.
	Days int
}

// PlanWild lays out the campaign schedule without running anything.
// Each country's window follows the previous one's end, which depends
// only on the scaled stay lengths — so every job's start is known up
// front and jobs need no predecessor's output.
func PlanWild(cfg WildConfig) []CountryJob {
	cfg.defaults()
	jobs := make([]CountryJob, 0, len(cfg.Countries))
	start := CampaignStart
	for ci, spec := range cfg.Countries {
		days := int(float64(spec.Days)*cfg.Scale + 0.5)
		if days < 1 {
			days = 1
		}
		jobs = append(jobs, CountryJob{Cfg: cfg, Spec: spec, Index: ci, Start: start, Days: days})
		start = start.Add(time.Duration(days) * 24 * time.Hour)
	}
	return jobs
}

// Run executes the job: build the world, then run it to completion. In
// a streaming run a panic in either phase aborts the world's emitter
// (a no-op once run has closed it), so the pipeline fails instead of
// waiting forever on a stream that will never end.
func (j CountryJob) Run() CountryResult {
	if j.Cfg.Stream != nil {
		defer j.Cfg.Stream.World(j.Index).Abort()
	}
	return j.build().run()
}

// RunWild simulates the full campaign. Countries are independent worlds
// occupying consecutive time windows, so they run concurrently on
// cfg.Workers workers and are reassembled in spec order.
func RunWild(cfg WildConfig) *WildResult {
	jobs := PlanWild(cfg) // PlanWild applies the config defaults

	return &WildResult{Countries: runner.Map(cfg.Workers, len(jobs), func(i int) CountryResult {
		return jobs[i].Run()
	})}
}

// CollectWild runs the campaign on a fresh pipeline (replacing
// cfg.Stream) whose consumers are a pipeline.DatasetCollector followed
// by sinks, waits for every consumer to close, and attaches each
// country's raw Dataset and Homes from the collector. The error is the
// pipeline's: a sink that failed, or a world that aborted.
func CollectWild(cfg WildConfig, sinks ...pipeline.Consumer) (*WildResult, error) {
	col := pipeline.NewDatasetCollector()
	pl := pipeline.New(len(PlanWild(cfg)), pipeline.Config{}, append([]pipeline.Consumer{col}, sinks...)...)
	cfg.Stream = pl
	res := RunWild(cfg)
	if err := pl.Wait(); err != nil {
		return nil, err
	}
	res.Attach(col.Worlds())
	return res, nil
}

// Attach sets each country's Dataset and Homes from the data a pipeline
// consumer built from its stream, in campaign order.
func (w *WildResult) Attach(worlds []pipeline.WorldData) {
	for i, wd := range worlds {
		w.Countries[i].Dataset, w.Countries[i].Homes = wd.Dataset, wd.Homes
	}
}

// replicateSeedStride separates replicate seed spaces. It dwarfs every
// intra-campaign seed offset (countries use index*1000, tags index*10),
// so replicate streams can never collide.
const replicateSeedStride = 1 << 20

// ReplicateSeed derives the base seed of replicate r; replicate 0 keeps
// the base seed, so the first replicate reproduces RunWild exactly.
func ReplicateSeed(base int64, r int) int64 { return base + int64(r)*replicateSeedStride }

// countryWorld is a fully built, ready-to-run country: the build phase
// (geography, fleet, itinerary, tags, instruments) is separated from the
// run phase so each stays on the job's own engine and either can be
// profiled on its own.
type countryWorld struct {
	job            CountryJob
	e              *sim.Engine
	end            time.Time
	itin           *mobility.Itinerary // both tags ride it
	fleet          *device.Fleet
	pop            *population.Map // primary city raster (Figures 6-7)
	vp             *vantage.VantagePoint
	appleCrawler   *crawler.Crawler
	samsungCrawler *crawler.Crawler
	plane          *encounter.Plane
	em             *pipeline.WorldEmitter // nil outside streaming runs
}

// build constructs the country's world on a fresh engine.
func (j CountryJob) build() *countryWorld {
	cfg, spec, index, start, days := j.Cfg, j.Spec, j.Index, j.Start, j.Days
	e := sim.NewEngine(start, cfg.Seed+int64(index)*1000)
	rng := e.RNG("country/" + spec.Code)
	end := start.Add(time.Duration(days) * 24 * time.Hour)

	// Synthetic geography: city centers on a ring around the country
	// anchor, each with a population raster and shared venues.
	centers := make([]geo.LatLon, spec.Cities)
	for i := range centers {
		bearing := float64(i) * 360 / float64(spec.Cities)
		dist := 0.0
		if spec.Cities > 1 {
			dist = 9000 + rng.Float64()*5000
		}
		centers[i] = geo.Destination(spec.Center, bearing, dist)
	}
	pops := make([]*population.Map, spec.Cities)
	venues := make([][]geo.LatLon, spec.Cities)
	for i, c := range centers {
		pops[i] = population.SyntheticCity(population.CityConfig{
			Center: c, RadiusKm: cfg.CityRadiusKm, Population: spec.CityPopulation,
		}, rng)
		// Five venues per city, density-weighted: where both residents
		// and the participant go.
		vs := make([]geo.LatLon, 5)
		for k := range vs {
			vs[k] = pops[i].SampleHome(rng)
		}
		venues[i] = vs
	}

	// Participant homes: one per city, density-weighted.
	homes := make([]geo.LatLon, spec.Cities)
	for i := range homes {
		homes[i] = pops[i].SampleHome(rng)
	}

	// Vantage itinerary matching the country's distance quotas.
	quota := dayQuota{
		walkKm:    spec.WalkKm * cfg.Scale / float64(days),
		jogKm:     spec.JogKm * cfg.Scale / float64(days),
		transitKm: spec.TransitKm * cfg.Scale / float64(days),
	}
	itin, rides := buildCountryItinerary(rng, start, days, homes, centers, venues, quota)

	// Reporting fleet: per city, homes density-weighted (30% biased to
	// within 500 m of a venue — activity centers concentrate phones),
	// daily routines around the shared venues, plus ambient street
	// wanderers circulating around each venue.
	var devices []*device.Device
	pickVendor := func() trace.Vendor {
		r := rng.Float64()
		switch {
		case r < spec.AppleShare:
			return trace.VendorApple
		case r < spec.AppleShare+spec.SamsungShare:
			return trace.VendorSamsung
		default:
			return trace.VendorOther
		}
	}
	for i := range centers {
		for k := 0; k < cfg.scaleCount(cfg.DevicesPerCity); k++ {
			vendor := pickVendor()
			var home geo.LatLon
			if rng.Float64() < 0.35 {
				v := venues[i][rng.Intn(len(venues[i]))]
				home = geo.Destination(v, rng.Float64()*360, 40+rng.Float64()*460)
			} else {
				home = pops[i].SampleHome(rng)
			}
			routine := mobility.DailyRoutine(rng, mobility.RoutineConfig{
				Home:   home,
				Work:   maybeWork(rng, pops[i]),
				Venues: venues[i],
			}, start, days)
			d := device.New(fmt.Sprintf("%s-c%d-dev%04d", spec.Code, i, k), vendor, home, routine)
			if vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungResidentOptIn // opt-in required
			}
			devices = append(devices, d)
		}
		// Ambient pedestrians around each venue: the street crowd that a
		// resident-only model under-represents. They wander the venue's
		// surroundings during waking hours and sleep far away — the
		// street empties at night, which is what depresses the paper's
		// night-period accuracy (Figure 5e).
		for vi, v := range venues[i] {
			for k := 0; k < cfg.scaleCount(12); k++ {
				w := dayWanderer(rng, v, 250, start, days)
				d := device.New(fmt.Sprintf("%s-c%d-amb%d-%d", spec.Code, i, vi, k), pickVendor(), v, w)
				if d.Vendor == trace.VendorSamsung {
					d.OptedIn = rng.Float64() < samsungActiveOptIn
				}
				devices = append(devices, d)
			}
			// Venue dwellers: staff and seated patrons whose phones sit
			// meters from anyone at the venue during opening hours — the
			// cafe tables of the paper's campaign.
			for k := 0; k < cfg.scaleCount(3); k++ {
				p := geo.Destination(v, rng.Float64()*360, 5+rng.Float64()*20)
				d := device.New(fmt.Sprintf("%s-c%d-stf%d-%d", spec.Code, i, vi, k), pickVendor(), p, venueDweller(rng, p, start, days))
				if d.Vendor == trace.VendorSamsung {
					d.OptedIn = rng.Float64() < samsungActiveOptIn
				}
				devices = append(devices, d)
			}
		}
	}
	// Home neighbors: the phones living within Bluetooth reach of each
	// participant home. They produce the at-home report stream that
	// dominates Table 1's raw counts (65% of the paper's data was near
	// home) but is excluded from the accuracy analysis by the home
	// filter.
	for hi, h := range homes {
		for k := 0; k < cfg.scaleCount(12); k++ {
			np := geo.Destination(h, rng.Float64()*360, 30+rng.Float64()*220)
			d := device.New(fmt.Sprintf("%s-nbr%d-%d", spec.Code, hi, k), pickVendor(), np, mobility.Stationary(np))
			if d.Vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungResidentOptIn
			}
			devices = append(devices, d)
		}
	}
	// Co-travelers: fellow passengers sharing each of the participant's
	// transit rides — the paper's trains and buses are full of phones
	// that ride within Bluetooth range for the whole leg.
	for si, it := range rides {
		n := poisson(rng, 6*cfg.FleetScale)
		for k := 0; k < n; k++ {
			d := device.New(fmt.Sprintf("%s-ride%d-pax%d", spec.Code, si, k), pickVendor(), it.Pos(it.Start), it)
			d.ActiveFrom = it.Start.Add(-time.Minute)
			d.ActiveTo = it.End().Add(time.Minute)
			if d.Vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungActiveOptIn
			}
			devices = append(devices, d)
		}
	}
	fleet := device.NewFleet(spec.Center, devices)

	// Tags ride the vantage point.
	airTag := tag.New("airtag-1", tag.AirTagProfile(), itin)
	smartTag := tag.New("smarttag-1", tag.SmartTagProfile(), itin)
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	apple.Register(airTag.ID)
	samsung.Register(smartTag.ID)
	clouds := map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	}
	plane := encounter.New(encounter.Config{ScanWorkers: cfg.ScanWorkers}, e, fleet, []*tag.Tag{airTag, smartTag}, clouds)
	plane.Attach(start)

	// Vantage point and crawlers.
	vp := vantage.New(vantage.DefaultConfig("vp-"+spec.Code), itin, e.RNG("vantage/"+spec.Code))
	vp.Attach(e, start)
	appleCrawler := crawler.New(crawler.DefaultConfig(trace.VendorApple), apple, []string{airTag.ID}, e.RNG("crawl/apple/"+spec.Code))
	samsungCrawler := crawler.New(crawler.DefaultConfig(trace.VendorSamsung), samsung, []string{smartTag.ID}, e.RNG("crawl/samsung/"+spec.Code))
	appleCrawler.Attach(e, start)
	samsungCrawler.Attach(e, start)

	// Tap every record stream into the world's pipeline emitter, the
	// world's only output. The taps run on the engine's goroutine, so
	// emission order is the engine's deterministic event order; the
	// world's pipeline queue hands the stream to the pipeline's
	// consumers. None of this perturbs any RNG draw, so a world with no
	// Stream simulates exactly the same records and counters.
	var em *pipeline.WorldEmitter
	if cfg.Stream != nil {
		em = cfg.Stream.World(index)
		em.RegisterTag(trace.VendorApple, airTag.ID)
		em.RegisterTag(trace.VendorSamsung, smartTag.ID)
		apple.Tap = em.Report
		samsung.Tap = em.Report
		appleCrawler.Tap = em.Crawl
		samsungCrawler.Tap = em.Crawl
		vp.Tap = em.Fixes
	}

	return &countryWorld{
		job:            j,
		e:              e,
		end:            end,
		itin:           itin,
		fleet:          fleet,
		pop:            pops[0],
		vp:             vp,
		appleCrawler:   appleCrawler,
		samsungCrawler: samsungCrawler,
		plane:          plane,
		em:             em,
	}
}

// run drives the world's engine to the end of the stay and returns the
// country's counters. In a streaming run the emitter is closed here —
// after the final vantage flush — sealing the world's batch sequence.
func (w *countryWorld) run() CountryResult {
	w.e.RunUntil(w.end)
	w.vp.Flush(w.end) // deliver whatever is still buffered
	w.plane.Close()   // park the region-scan workers, if any
	if w.em != nil {
		w.em.Close()
	}

	kmByClass := make(map[mobility.SpeedClass]float64)
	for cls, m := range w.itin.DistanceByClass() {
		kmByClass[cls] += m / 1000
	}
	return CountryResult{
		Spec:       w.job.Spec,
		Days:       w.job.Days,
		Start:      w.job.Start,
		End:        w.end,
		AppleNow:   w.appleCrawler.NowCount(),
		SamsungNow: w.samsungCrawler.NowCount(),
		KmByClass:  kmByClass,
		Population: w.pop,
	}
}

// dayWanderer builds an ambient pedestrian: random walks within radiusM
// of anchor between ~08:00 and ~22:30 each day, overnight at a home well
// away from the venue.
func dayWanderer(rng *rand.Rand, anchor geo.LatLon, radiusM float64, start time.Time, days int) *mobility.Itinerary {
	home := geo.Destination(anchor, rng.Float64()*360, 700+rng.Float64()*800)
	b := mobility.NewBuilder(start, home)
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		b.StayUntil(dayStart + 8*time.Hour + time.Duration(rng.Int63n(int64(90*time.Minute))))
		end := dayStart + 22*time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
		for b.Elapsed() < end {
			dest := geo.Destination(anchor, rng.Float64()*360, rng.Float64()*radiusM)
			b.MoveTo(dest, 2+rng.Float64()*3)
			b.Stay(time.Minute + time.Duration(rng.Int63n(int64(8*time.Minute))))
		}
		b.MoveTo(home, 4)
		b.StayUntil(dayStart + 24*time.Hour)
	}
	return b.Build()
}

// venueDweller builds a staff/patron phone: at its venue spot during
// opening hours (~09:00-22:00), home overnight.
func venueDweller(rng *rand.Rand, spot geo.LatLon, start time.Time, days int) *mobility.Itinerary {
	home := geo.Destination(spot, rng.Float64()*360, 600+rng.Float64()*900)
	b := mobility.NewBuilder(start, home)
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		b.StayUntil(dayStart + 9*time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
		b.MoveTo(spot, 18)
		b.StayUntil(dayStart + 21*time.Hour + time.Duration(rng.Int63n(int64(90*time.Minute))))
		b.MoveTo(home, 18)
		b.StayUntil(dayStart + 24*time.Hour)
	}
	return b.Build()
}

func maybeWork(rng *rand.Rand, pop *population.Map) geo.LatLon {
	if rng.Float64() < 0.6 {
		return pop.SampleHome(rng)
	}
	return geo.LatLon{}
}

// dayQuota is the per-day distance budget by mobility class.
type dayQuota struct {
	walkKm, jogKm, transitKm float64
}

// buildCountryItinerary plans the participant's days: overnight at the
// city home, a morning jog, a transit trip to a venue (possibly in another
// city) with walking there, and a transit return — consuming the Table 1
// distance quotas. Evening outings on some days extend coverage into the
// paper's evening/night periods. Every transit ride is also returned on
// its own, as the itinerary its fellow passengers share.
func buildCountryItinerary(rng *rand.Rand, start time.Time, days int, homes, centers []geo.LatLon, venues [][]geo.LatLon, q dayQuota) (*mobility.Itinerary, []*mobility.Itinerary) {
	nCities := len(homes)
	b := mobility.NewBuilder(start, homes[0])
	var rides []*mobility.Itinerary
	ride := func(path geo.Path, speedKmh float64) {
		if r := transit(rng, b, start.Add(b.Elapsed()), path, speedKmh); r != nil {
			rides = append(rides, r)
		}
	}
	// wander walks a zig-zag of the given total length around an anchor.
	wander := func(anchor geo.LatLon, totalM float64, speedKmh float64) {
		remaining := totalM
		for remaining > 10 {
			leg := 80 + rng.Float64()*220
			if leg > remaining {
				leg = remaining
			}
			cur := b.Pos()
			dest := geo.Destination(anchor, rng.Float64()*360, 30+rng.Float64()*400)
			if l := geo.Distance(cur, dest); l > 1 {
				dest = geo.Lerp(cur, dest, leg/l)
			}
			b.MoveTo(dest, speedKmh)
			remaining -= geo.Distance(cur, dest)
		}
	}

	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		cityIdx := d * nCities / days // rotate through cities
		home := homes[cityIdx]
		if b.Pos() != home {
			// Overnight relocation to the next city's home (counts as
			// transit).
			ride(geo.Path{b.Pos(), home}, 50+rng.Float64()*30)
		}
		// Morning jog: out-and-back loop near home.
		b.StayUntil(dayStart + 7*time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
		if q.jogKm > 0.01 {
			half := geo.Destination(home, rng.Float64()*360, q.jogKm*1000/2)
			speed := 8 + rng.Float64()*3 // jogging: 8-11 km/h
			b.MoveTo(half, speed)
			b.MoveTo(home, speed)
		}
		// Midday trip: transit to a venue in some city (a highway detour
		// absorbs the day's transit quota — long rides cross empty
		// country, but the destination is always a real activity
		// center), walk around it, then ride straight home.
		b.StayUntil(dayStart + 10*time.Hour + time.Duration(rng.Int63n(int64(2*time.Hour))))
		if q.transitKm > 0.01 {
			destCity := cityIdx
			if nCities > 1 && rng.Float64() < 0.6 {
				destCity = (cityIdx + 1 + rng.Intn(nCities-1)) % nCities
			}
			vs := venues[destCity]
			venue := vs[rng.Intn(len(vs))]
			dayTransitM := q.transitKm * 1000
			backM := geo.Distance(venue, home)
			outTarget := dayTransitM - backM
			speed := 32 + rng.Float64()*16 // transit: 32-48 km/h
			ride(detourPath(home, venue, outTarget, rng), speed)
			// Walk the day's quota around the venue, then settle at the
			// venue itself — where the crowd is — for the long stay.
			if q.walkKm > 0.01 {
				wander(venue, q.walkKm*1000, 3.5+rng.Float64()*2)
			}
			b.MoveTo(venue, 4+rng.Float64()*1.5)
			b.Stay(45*time.Minute + time.Duration(rng.Int63n(int64(75*time.Minute))))
			ride(geo.Path{b.Pos(), home}, speed)
		} else if q.walkKm > 0.01 {
			wander(home, q.walkKm*1000, 3.5+rng.Float64()*2)
			b.MoveTo(home, 4)
		}
		// Evening outing on ~70% of days, reaching the evening/night
		// periods. A nearby venue is preferred (dinner out); otherwise a
		// spot within walking distance, its leg drawn from the walk
		// quota so Table 1's walk column stays faithful.
		if rng.Float64() < 0.7 {
			b.StayUntil(dayStart + 19*time.Hour + time.Duration(rng.Int63n(int64(3*time.Hour))))
			dest := geo.Destination(home, rng.Float64()*360, clampF(q.walkKm*1000*0.15, 80, 600))
			if v, ok := nearestVenue(venues[cityIdx], home, 1200); ok && rng.Float64() < 0.6 {
				dest = v
			}
			b.MoveTo(dest, 4+rng.Float64()*1.5)
			b.Stay(40*time.Minute + time.Duration(rng.Int63n(int64(80*time.Minute))))
			b.MoveTo(home, 4+rng.Float64()*1.5)
		}
		b.StayUntil(dayStart + 24*time.Hour)
	}
	return b.Build(), rides
}

// transit moves b along a ride's path in ~2 km sub-legs separated by
// 45-90 s station stops; the stops matter because a report of a moving
// tag is mislocated by the crawler's timestamp quantization, while a
// report at a stop is not. It returns the ride alone, from the path's
// start at begin (b's instant when the ride sets off), as the itinerary
// its fellow passengers share; nil when the path is too short to ride.
func transit(rng *rand.Rand, b *mobility.Builder, begin time.Time, path geo.Path, speedKmh float64) *mobility.Itinerary {
	total := path.Length()
	if total < 1 || speedKmh <= 0 {
		return nil
	}
	pax := mobility.NewBuilder(begin, path.At(0))
	for pos := 0.0; pos < total; {
		leg := 1500 + rng.Float64()*1500
		next := pos + leg
		if next > total-500 {
			next = total
		}
		stopAt := path.At(next)
		b.MoveTo(stopAt, speedKmh)
		pax.MoveTo(stopAt, speedKmh)
		if next < total {
			stop := 45*time.Second + time.Duration(rng.Int63n(int64(45*time.Second)))
			b.Stay(stop)
			pax.Stay(stop)
		}
		pos = next
	}
	return pax.Build()
}

// detourPath builds a transit route from home to venue whose ground length
// is targetM: direct when the quota is small, otherwise a triangle via a
// perpendicular detour point (the highway loop long-distance commutes take
// in the paper's campaign, where days covered over 100 transit km).
func detourPath(home, venue geo.LatLon, targetM float64, rng *rand.Rand) geo.Path {
	direct := geo.Distance(home, venue)
	if targetM <= direct+200 || direct < 1 {
		return geo.Path{home, venue}
	}
	// Each half of the triangle is sqrt((direct/2)^2 + h^2); solve for
	// the perpendicular offset h that makes the total equal targetM.
	half := targetM / 2
	h := math.Sqrt(math.Max(half*half-direct*direct/4, 0))
	mid := geo.Midpoint(home, venue)
	side := 90.0
	if rng.Intn(2) == 0 {
		side = -90
	}
	perp := geo.Bearing(home, venue) + side
	detour := geo.Destination(mid, perp, h)
	return geo.Path{home, detour, venue}
}

// nearestVenue returns the closest venue within maxM of p.
func nearestVenue(vs []geo.LatLon, p geo.LatLon, maxM float64) (geo.LatLon, bool) {
	best := geo.LatLon{}
	bestD := maxM
	found := false
	for _, v := range vs {
		if d := geo.Distance(v, p); d <= bestD {
			best, bestD, found = v, d, true
		}
	}
	return best, found
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
