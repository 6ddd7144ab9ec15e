package tagsim_test

import (
	"strings"
	"testing"
	"time"

	"tagsim"
)

func TestBanner(t *testing.T) {
	if !strings.Contains(tagsim.String(), "IMC'23") {
		t.Error("banner missing")
	}
}

func TestFacadeControlledExperiments(t *testing.T) {
	fig2 := tagsim.Figure2(1)
	if len(fig2.Rows) != 8 {
		t.Fatalf("figure 2 rows = %d", len(fig2.Rows))
	}
	bat := tagsim.Battery()
	if bat.Ratio < 1.1 || bat.Ratio > 1.3 {
		t.Errorf("battery ratio %v", bat.Ratio)
	}
}

func TestFacadeBeaconPipeline(t *testing.T) {
	rx := tagsim.SecludedRSSI(tagsim.SecludedConfig{Seed: 1, Duration: time.Minute})
	if len(rx) == 0 {
		t.Fatal("no beacons")
	}
	// The profiles expose the radio constants.
	if tagsim.AirTagProfile().AdvInterval <= tagsim.SmartTagProfile().AdvInterval {
		t.Error("SmartTag must advertise faster")
	}
}

func TestFacadeMiniWildAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("mini campaign")
	}
	res := tagsim.RunWild(tagsim.WildConfig{
		Seed: 5,
		Countries: []tagsim.CountrySpec{{
			Code: "QQ", Cities: 1, Days: 1, WalkKm: 3, JogKm: 2, TransitKm: 25,
			Center:         tagsim.LatLon{Lat: 45.46, Lon: 9.19},
			CityPopulation: 120000, AppleShare: 0.6, SamsungShare: 0.15,
		}},
		DevicesPerCity: 250,
	})
	cr := res.Countries[0]
	homes := tagsim.DetectHomes(cr.Dataset.GroundTruth, 300)
	kept, _ := tagsim.FilterNearHomes(cr.Dataset.GroundTruth, homes, 300)
	truth := tagsim.NewTruthIndex(kept)
	acc := tagsim.Accuracy(truth, cr.Dataset.CrawlsFor(tagsim.VendorCombined),
		time.Hour, 100, cr.Start, cr.End)
	if acc.Buckets == 0 {
		t.Fatal("no buckets through the facade")
	}
}

// TestReproduceAllParallelDeterminism drives the full evaluation through
// the facade at several worker counts: the rendered output must be
// byte-identical, and CI's -race run on this package exercises the
// concurrent figure passes over the shared campaign.
func TestReproduceAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two mini campaigns")
	}
	render := func(workers int) string {
		var b strings.Builder
		opts := tagsim.CampaignOptions{Seed: 3, Scale: 0.02, DevicesPerCity: 60, Workers: workers}
		if err := tagsim.ReproduceAll(&b, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return b.String()
	}
	sequential := render(1)
	for _, want := range []string{"Figure 2", "Table 1", "Figure 8", "Headline"} {
		if !strings.Contains(sequential, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if parallel := render(8); parallel != sequential {
		t.Errorf("workers=8 output differs from workers=1 (%d vs %d bytes)", len(parallel), len(sequential))
	}
}

func TestFacadeStalkingPipeline(t *testing.T) {
	stream := tagsim.StalkScenario{Seed: 2, Duration: 8 * time.Hour, SameVendor: true}.Generate()
	if len(stream) == 0 {
		t.Fatal("no observations")
	}
	out := tagsim.EvaluateDetector(tagsim.NewAirGuardDetector(), stream)
	if out.AddressesSeen == 0 {
		t.Error("no pseudonyms observed")
	}
	sig, _ := tagsim.WelchTTest([]float64{1, 2, 3, 4}, []float64{11, 12, 13, 14})
	if tagsim.Stars(sig.P) == "ns" {
		t.Error("obvious difference should be significant")
	}
}
