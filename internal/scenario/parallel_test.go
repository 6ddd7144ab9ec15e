package scenario

import (
	"reflect"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// collect runs the campaign through CollectWild, which attaches the
// raw per-country datasets and homes the tests compare.
func collect(t *testing.T, cfg WildConfig) *WildResult {
	t.Helper()
	res, err := CollectWild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tinyCampaign is a three-country campaign small enough to simulate in
// seconds but wide enough that a parallel runner actually overlaps
// worlds.
func tinyCampaign(seed int64, workers int) WildConfig {
	return WildConfig{
		Seed:    seed,
		Workers: workers,
		Countries: []CountrySpec{
			{Code: "AA", Cities: 1, Days: 1, WalkKm: 3, JogKm: 2, TransitKm: 25,
				Center: geo.LatLon{Lat: 24.4539, Lon: 54.3773}, CityPopulation: 120000,
				AppleShare: 0.7, SamsungShare: 0.2},
			{Code: "BB", Cities: 2, Days: 1, WalkKm: 4, JogKm: 2, TransitKm: 40,
				Center: geo.LatLon{Lat: 45.4642, Lon: 9.1900}, CityPopulation: 100000,
				AppleShare: 0.5, SamsungShare: 0.3},
			{Code: "CC", Cities: 1, Days: 2, WalkKm: 5, JogKm: 3, TransitKm: 30,
				Center: geo.LatLon{Lat: 52.5200, Lon: 13.4050}, CityPopulation: 110000,
				AppleShare: 0.6, SamsungShare: 0.15},
		},
		DevicesPerCity: 120,
	}
}

func TestPlanWildWindows(t *testing.T) {
	cfg := WildConfig{Seed: 1, Scale: 0.1}
	jobs := PlanWild(cfg)
	if len(jobs) != 6 {
		t.Fatalf("%d jobs, want 6 (Table 1 countries)", len(jobs))
	}
	prevEnd := CampaignStart
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d carries index %d", i, j.Index)
		}
		if !j.Start.Equal(prevEnd) {
			t.Errorf("job %d starts %v, want the previous end %v", i, j.Start, prevEnd)
		}
		if j.Days < 1 {
			t.Errorf("job %d has %d days; scaling must clamp to >= 1", i, j.Days)
		}
		prevEnd = j.Start.Add(time.Duration(j.Days) * 24 * time.Hour)
	}
}

// TestWildParallelDeterminism is the refactor's headline property: a
// parallel campaign is deep-equal to the sequential one, country by
// country, dataset by dataset.
func TestWildParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	sequential := collect(t, tinyCampaign(31, 1))
	for _, workers := range []int{8, 0} {
		parallel := collect(t, tinyCampaign(31, workers))
		if len(parallel.Countries) != len(sequential.Countries) {
			t.Fatalf("workers=%d: %d countries, want %d", workers, len(parallel.Countries), len(sequential.Countries))
		}
		for i := range sequential.Countries {
			a, b := sequential.Countries[i], parallel.Countries[i]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("workers=%d: country %s diverged from the sequential run (fixes %d vs %d, apple now %d vs %d)",
					workers, a.Spec.Code, len(a.Dataset.GroundTruth), len(b.Dataset.GroundTruth), a.AppleNow, b.AppleNow)
			}
		}
	}
}

// TestWildWithoutStreamKeepsNothing: a world's records leave only
// through its Stream. Without one the worlds keep no dataset and no
// homes, while every counter matches the collected run.
func TestWildWithoutStreamKeepsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := tinyCampaign(37, 0)
	cfg.Countries = cfg.Countries[:2]
	bare, collected := RunWild(cfg), collect(t, cfg)
	for i := range bare.Countries {
		b, c := bare.Countries[i], collected.Countries[i]
		if b.Dataset != nil || b.Homes != nil {
			t.Errorf("%s: an unstreamed world kept %v and %d homes", b.Spec.Code, b.Dataset, len(b.Homes))
		}
		if c.Dataset == nil || len(c.Dataset.GroundTruth) == 0 || len(c.Homes) == 0 {
			t.Fatalf("%s: the collector attached no data", c.Spec.Code)
		}
		c.Dataset, c.Homes = nil, nil
		if !reflect.DeepEqual(b, c) {
			t.Errorf("%s: unstreamed counters differ from the collected run", b.Spec.Code)
		}
	}
}

// TestWildScanWorkerDeterminism: the region-sharded scan tick is
// output-preserving at the campaign level — a full wild run with
// ScanWorkers set deep-equals the serial-scan run, composed with the
// across-world Workers fan-out. (The per-report byte-identity property
// lives in internal/encounter; this pins the scenario wiring.)
func TestWildScanWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	serial := collect(t, tinyCampaign(31, 1))
	for _, scanWorkers := range []int{2, 8} {
		cfg := tinyCampaign(31, 0)
		cfg.ScanWorkers = scanWorkers
		sharded := collect(t, cfg)
		if !reflect.DeepEqual(serial, sharded) {
			for i := range serial.Countries {
				a, b := serial.Countries[i], sharded.Countries[i]
				if !reflect.DeepEqual(a, b) {
					t.Errorf("scan-workers=%d: country %s diverged from the serial scan (fixes %d vs %d, apple now %d vs %d)",
						scanWorkers, a.Spec.Code, len(a.Dataset.GroundTruth), len(b.Dataset.GroundTruth), a.AppleNow, b.AppleNow)
				}
			}
		}
	}
}

// TestWildFleetScale: the fleet-growth knob multiplies the reporting
// crowds (more devices, more reports) while FleetScale=1 — the default —
// is the exact identity.
func TestWildFleetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := tinyCampaign(13, 0)
	cfg.Countries = cfg.Countries[:1]
	base := collect(t, cfg)
	cfg.FleetScale = 1
	if explicit := collect(t, cfg); !reflect.DeepEqual(base, explicit) {
		t.Error("FleetScale=1 must be byte-identical to the unset default")
	}
	cfg.FleetScale = 3
	big := collect(t, cfg)
	baseReports := len(base.Countries[0].Dataset.CrawlsFor(trace.VendorApple))
	bigReports := len(big.Countries[0].Dataset.CrawlsFor(trace.VendorApple))
	if bigReports < baseReports {
		t.Errorf("3x fleet produced fewer apple crawl records (%d) than 1x (%d)", bigReports, baseReports)
	}
}

// TestWildReplicates checks the replicate contract scenario owns: a
// replicate is RunWild at ReplicateSeed(seed, r), replicate 0 is the
// plain run, and later replicates are different worlds on the same
// country schedule. (Campaign-level replicates are checked by
// experiments.TestCampaignReplicates.)
func TestWildReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := tinyCampaign(17, 0)
	reps := make([]*WildResult, 3)
	for r := range reps {
		rcfg := cfg
		rcfg.Seed = ReplicateSeed(cfg.Seed, r)
		reps[r] = collect(t, rcfg)
	}
	// Replicate 0 keeps the base seed: identical to a plain RunWild.
	if base := collect(t, cfg); !reflect.DeepEqual(base, reps[0]) {
		t.Error("replicate 0 diverged from RunWild with the base seed")
	}
	// Later replicates are genuinely different worlds...
	if reflect.DeepEqual(reps[0].Countries[0].Dataset.GroundTruth, reps[1].Countries[0].Dataset.GroundTruth) {
		t.Error("replicates 0 and 1 produced identical ground truth; seeds did not diverge")
	}
	// ...on the same schedule.
	for r, rep := range reps {
		for i := range rep.Countries {
			if !rep.Countries[i].Start.Equal(reps[0].Countries[i].Start) {
				t.Errorf("replicate %d country %d starts %v, want the shared schedule",
					r, i, rep.Countries[i].Start)
			}
		}
	}
}

func TestReplicateSeed(t *testing.T) {
	if ReplicateSeed(7, 0) != 7 {
		t.Error("replicate 0 must keep the base seed")
	}
	seen := map[int64]bool{}
	// Strides must clear every intra-campaign offset (countries use
	// index*1000, tags index*10).
	for r := 0; r < 100; r++ {
		s := ReplicateSeed(7, r)
		if seen[s] {
			t.Fatalf("seed collision at replicate %d", r)
		}
		seen[s] = true
		if r > 0 {
			if d := s - ReplicateSeed(7, r-1); d < 100000 {
				t.Fatalf("replicate stride %d too small to clear country seed offsets", d)
			}
		}
	}
}
