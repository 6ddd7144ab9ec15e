package vantage

import (
	"sync"
	"testing"
	"time"

	"tagsim/internal/sim"
	"tagsim/internal/trace"
)

// TestStatsConcurrentWithEngine is the raced regression for the
// satellite fix: VantagePoint.Stats must be safe to read while the
// engine drives Sample/Flush (a -live serve loop or a metrics logger
// polling upload diagnostics mid-run). Before the counters became
// atomics this was a data race the detector flagged. Run under -race
// in CI.
func TestStatsConcurrentWithEngine(t *testing.T) {
	e := sim.NewEngine(t0, 1)
	cfg := DefaultConfig("vp-race")
	cfg.OnlineProb = 0.5 // exercise the offline counter too
	vp := New(cfg, walkModel(), e.RNG("vp-race"))
	tapped := 0
	vp.Tap = func(fs []trace.GroundTruth) { tapped += len(fs) }
	vp.Attach(e, t0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastUp, lastFl, lastOff int
		for {
			select {
			case <-stop:
				return
			default:
			}
			up, fl, off := vp.Stats()
			if up < lastUp || fl < lastFl || off < lastOff {
				t.Errorf("counter moved backward: uploaded %d->%d flushes %d->%d offline %d->%d",
					lastUp, up, lastFl, fl, lastOff, off)
				return
			}
			lastUp, lastFl, lastOff = up, fl, off
		}
	}()
	e.RunFor(2 * time.Hour)
	close(stop)
	wg.Wait()

	up, fl, _ := vp.Stats()
	if up == 0 || fl == 0 {
		t.Fatalf("no activity recorded: uploaded=%d flushes=%d", up, fl)
	}
	if tapped != up {
		t.Errorf("Tap received %d fixes, Stats counts %d uploaded", tapped, up)
	}
}
