// Package vantage models the paper's vantage point: a Xiaomi Redmi Go
// (neither Apple nor Samsung, so it reports no one's tags) carrying both
// tags on a 3D-printed cover, running a custom app that samples GPS every
// five seconds, records only position changes, buffers for five minutes,
// and POSTs the buffer to a collection server whenever a data connection
// exists.
package vantage

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/trace"
)

// Config parameterizes the vantage-point app.
type Config struct {
	ID string
	// SampleEvery is the GPS sampling period (paper: 5 s).
	SampleEvery time.Duration
	// FlushEvery is the buffer upload period (paper: 5 min).
	FlushEvery time.Duration
	// GPSSigmaM is the 1-sigma GPS error of the phone.
	GPSSigmaM float64
	// MinMoveM suppresses redundant samples: a fix is recorded only when
	// it moved at least this far from the last recorded fix.
	MinMoveM float64
	// OnlineProb is the probability a flush finds connectivity; failed
	// flushes keep buffering (the paper's offline retention).
	OnlineProb float64
}

// DefaultConfig returns the paper's app settings.
func DefaultConfig(id string) Config {
	return Config{
		ID:          id,
		SampleEvery: 5 * time.Second,
		FlushEvery:  5 * time.Minute,
		GPSSigmaM:   4,
		MinMoveM:    3,
		OnlineProb:  0.9,
	}
}

// VantagePoint is one deployed ground-truth collector.
type VantagePoint struct {
	cfg      Config
	mobility mobility.Model
	rng      *rand.Rand

	buffer  []trace.GroundTruth
	lastFix geo.LatLon
	lastAt  time.Time
	hasFix  bool
	// Upload diagnostics are atomics so Stats can be read (by a live
	// serve loop or metrics logger) while the engine drives Flush.
	uploaded atomic.Int64
	flushes  atomic.Int64
	offline  atomic.Int64

	// Tap receives each successfully uploaded fix batch, in fix-time
	// order. It is the collection server: the vantage point keeps
	// nothing it uploaded (Stats counts it), so a batch with no Tap is
	// dropped. A campaign world taps it into its pipeline emitter. The
	// slice is reused between flushes; taps must copy what they keep.
	Tap func([]trace.GroundTruth)
}

// New creates a vantage point following the given mobility model.
func New(cfg Config, m mobility.Model, rng *rand.Rand) *VantagePoint {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 5 * time.Second
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 5 * time.Minute
	}
	return &VantagePoint{cfg: cfg, mobility: m, rng: rng}
}

// Attach schedules sampling and flushing on the engine from start until
// stopped via the returned function.
func (v *VantagePoint) Attach(e *sim.Engine, start time.Time) (stop func()) {
	stopSample := e.EveryFixed(start, v.cfg.SampleEvery, v.Sample)
	stopFlush := e.EveryFixed(start.Add(v.cfg.FlushEvery), v.cfg.FlushEvery, v.Flush)
	return func() {
		stopSample()
		stopFlush()
	}
}

// Pos returns the true position at time t (the tags ride along).
func (v *VantagePoint) Pos(t time.Time) geo.LatLon { return v.mobility.Pos(t) }

// Sample takes one GPS fix at the given virtual time.
func (v *VantagePoint) Sample(now time.Time) {
	truth := v.mobility.Pos(now)
	fix := truth
	if v.cfg.GPSSigmaM > 0 {
		dx := v.rng.NormFloat64() * v.cfg.GPSSigmaM
		dy := v.rng.NormFloat64() * v.cfg.GPSSigmaM
		fix = geo.Destination(truth, math.Atan2(dx, dy)*180/math.Pi, math.Hypot(dx, dy))
	}
	if v.hasFix && geo.Distance(fix, v.lastFix) < v.cfg.MinMoveM {
		return // only variations are recorded
	}
	speed := 0.0
	if v.hasFix {
		dt := now.Sub(v.lastAt).Seconds()
		if dt > 0 {
			speed = geo.MsToKmh(geo.Distance(fix, v.lastFix) / dt)
		}
	}
	v.buffer = append(v.buffer, trace.GroundTruth{
		T:         now,
		Pos:       fix,
		VantageID: v.cfg.ID,
		SpeedKmh:  speed,
	})
	v.lastFix, v.lastAt, v.hasFix = fix, now, true
}

// Flush attempts to upload the buffer at the given virtual time.
func (v *VantagePoint) Flush(now time.Time) {
	v.flushes.Add(1)
	if len(v.buffer) == 0 {
		return
	}
	if v.cfg.OnlineProb < 1 && v.rng.Float64() >= v.cfg.OnlineProb {
		v.offline.Add(1)
		return // no connection: keep buffering
	}
	for i := range v.buffer {
		v.buffer[i].UploadedAt = now
	}
	if v.Tap != nil {
		v.Tap(v.buffer)
	}
	v.uploaded.Add(int64(len(v.buffer)))
	v.buffer = v.buffer[:0]
}

// PendingBuffered returns how many fixes are still waiting for
// connectivity.
func (v *VantagePoint) PendingBuffered() int { return len(v.buffer) }

// Stats returns upload diagnostics: total fixes uploaded, flush attempts,
// and flushes skipped offline. Safe to call concurrently with a running
// engine — each load is atomic.
func (v *VantagePoint) Stats() (uploaded, flushes, offline int) {
	return int(v.uploaded.Load()), int(v.flushes.Load()), int(v.offline.Load())
}
