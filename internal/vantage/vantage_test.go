package vantage

import (
	"math"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/trace"
)

var (
	t0     = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
)

func walkModel() mobility.Model {
	dest := geo.Destination(origin, 90, 2000)
	b := mobility.NewBuilder(t0, origin)
	b.MoveTo(dest, 4)
	return b.Build()
}

// collect taps vp and returns the ground truth its Tap receives, as the
// collection server would hold it.
func collect(vp *VantagePoint) *[]trace.GroundTruth {
	var recs []trace.GroundTruth
	vp.Tap = func(fs []trace.GroundTruth) { recs = append(recs, fs...) }
	return &recs
}

func TestSamplingAndFlush(t *testing.T) {
	e := sim.NewEngine(t0, 1)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 1
	vp := New(cfg, walkModel(), e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(16 * time.Minute)

	recs := *uploaded
	if len(recs) == 0 {
		t.Fatal("no ground truth uploaded")
	}
	// Walking at 4 km/h, samples every 5 s move ~5.5 m: nearly every
	// sample should be recorded. 15 min => ~180 samples.
	if len(recs) < 120 {
		t.Errorf("only %d fixes recorded", len(recs))
	}
	for i, r := range recs {
		if r.VantageID != "vp1" {
			t.Fatal("vantage ID missing")
		}
		if r.UploadedAt.Before(r.T) {
			t.Fatal("uploaded before sampled")
		}
		if r.UploadedAt.Sub(r.T) > 6*time.Minute {
			t.Errorf("fix %d waited %v to upload with perfect connectivity", i, r.UploadedAt.Sub(r.T))
		}
		if i > 0 && r.T.Before(recs[i-1].T) {
			t.Fatal("records out of order")
		}
	}
}

func TestGroundTruthTracksTruth(t *testing.T) {
	e := sim.NewEngine(t0, 2)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 1
	cfg.GPSSigmaM = 4
	m := walkModel()
	vp := New(cfg, m, e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(10 * time.Minute)
	var worst float64
	for _, r := range *uploaded {
		d := geo.Distance(r.Pos, m.Pos(r.T))
		if d > worst {
			worst = d
		}
	}
	// 4 m sigma: errors beyond ~20 m would be a bug, not noise.
	if worst > 25 {
		t.Errorf("worst GPS error %.1f m", worst)
	}
}

func TestStationarySuppression(t *testing.T) {
	e := sim.NewEngine(t0, 3)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 1
	cfg.GPSSigmaM = 0 // no noise: position never changes
	vp := New(cfg, mobility.Stationary(origin), e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(30 * time.Minute)
	// Only the first fix is a variation; the rest are suppressed.
	if got := len(*uploaded); got != 1 {
		t.Errorf("stationary zero-noise vantage recorded %d fixes, want 1", got)
	}
}

func TestSpeedEstimates(t *testing.T) {
	e := sim.NewEngine(t0, 4)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 1
	cfg.GPSSigmaM = 0
	dest := geo.Destination(origin, 90, 5000)
	b := mobility.NewBuilder(t0, origin)
	b.MoveTo(dest, 10)
	m := b.Build()
	vp := New(cfg, m, e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(10 * time.Minute)
	recs := *uploaded
	if len(recs) < 50 {
		t.Fatalf("too few records: %d", len(recs))
	}
	// Skip the first fix (no predecessor => speed 0).
	var sum float64
	for _, r := range recs[1:] {
		sum += r.SpeedKmh
	}
	mean := sum / float64(len(recs)-1)
	if math.Abs(mean-10) > 1 {
		t.Errorf("mean speed estimate %.2f km/h, want ~10", mean)
	}
}

func TestOfflineBuffering(t *testing.T) {
	e := sim.NewEngine(t0, 5)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 0 // never online
	vp := New(cfg, walkModel(), e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(20 * time.Minute)
	if len(*uploaded) != 0 {
		t.Error("records uploaded while offline")
	}
	if vp.PendingBuffered() < 100 {
		t.Errorf("buffer holds %d fixes, expected the whole walk", vp.PendingBuffered())
	}
	_, flushes, offline := vp.Stats()
	if flushes == 0 || offline != flushes {
		t.Errorf("flushes=%d offline=%d", flushes, offline)
	}
}

func TestOfflineThenRecover(t *testing.T) {
	e := sim.NewEngine(t0, 6)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 0
	vp := New(cfg, walkModel(), e.RNG("vp"))
	uploaded := collect(vp)
	vp.Attach(e, t0)
	e.RunFor(12 * time.Minute)
	buffered := vp.PendingBuffered()
	if buffered == 0 {
		t.Fatal("nothing buffered")
	}
	// Connectivity returns: the next flush delivers everything buffered
	// so far; only samples taken after that flush may remain pending.
	vp.cfg.OnlineProb = 1
	e.RunFor(6 * time.Minute)
	recs := *uploaded
	if len(recs) < buffered {
		t.Errorf("only %d of %d buffered fixes delivered", len(recs), buffered)
	}
	if vp.PendingBuffered() >= buffered {
		t.Errorf("buffer still holds %d fixes after recovery", vp.PendingBuffered())
	}
	// All retained fixes keep their original sample times.
	for _, r := range recs {
		if r.T.After(r.UploadedAt) {
			t.Fatal("sample time after upload time")
		}
	}
}

func TestStopSampling(t *testing.T) {
	e := sim.NewEngine(t0, 7)
	cfg := DefaultConfig("vp1")
	cfg.OnlineProb = 1
	vp := New(cfg, walkModel(), e.RNG("vp"))
	uploaded := collect(vp)
	stop := vp.Attach(e, t0)
	e.RunFor(5 * time.Minute)
	stop()
	e.RunFor(time.Minute) // let any scheduled flush lapse
	n := len(*uploaded) + vp.PendingBuffered()
	e.RunFor(10 * time.Minute)
	if got := len(*uploaded) + vp.PendingBuffered(); got != n {
		t.Error("vantage kept sampling after stop")
	}
}

func TestConfigDefaults(t *testing.T) {
	vp := New(Config{ID: "x"}, mobility.Stationary(origin), sim.NewEngine(t0, 1).RNG("r"))
	if vp.cfg.SampleEvery != 5*time.Second || vp.cfg.FlushEvery != 5*time.Minute {
		t.Errorf("defaults not applied: %+v", vp.cfg)
	}
}

func BenchmarkSample(b *testing.B) {
	e := sim.NewEngine(t0, 1)
	vp := New(DefaultConfig("vp"), walkModel(), e.RNG("vp"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp.Sample(t0.Add(time.Duration(i) * 5 * time.Second))
	}
}
