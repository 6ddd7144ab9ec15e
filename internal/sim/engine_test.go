package sim

import (
	"testing"
	"time"
)

var start = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(start, 1)
	var order []int
	e.Schedule(start.Add(3*time.Second), func() { order = append(order, 3) })
	e.Schedule(start.Add(1*time.Second), func() { order = append(order, 1) })
	e.Schedule(start.Add(2*time.Second), func() { order = append(order, 2) })
	e.RunUntil(start.Add(time.Minute))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(start, 1)
	var order []string
	at := start.Add(time.Second)
	e.Schedule(at, func() { order = append(order, "a") })
	e.Schedule(at, func() { order = append(order, "b") })
	e.Schedule(at, func() { order = append(order, "c") })
	e.RunUntil(start.Add(time.Minute))
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie order = %q", got)
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(start, 1)
	var seen time.Time
	e.After(42*time.Second, func() { seen = e.Now() })
	e.RunUntil(start.Add(time.Hour))
	if !seen.Equal(start.Add(42 * time.Second)) {
		t.Errorf("event saw clock %v", seen)
	}
	if !e.Now().Equal(start.Add(time.Hour)) {
		t.Errorf("clock ended at %v, want deadline", e.Now())
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine(start, 1)
	e.RunUntil(start.Add(time.Minute))
	fired := false
	e.Schedule(start, func() { fired = true }) // in the past
	e.RunUntil(start.Add(2 * time.Minute))
	if !fired {
		t.Error("past-scheduled event never fired")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(start, 1)
	fired := false
	timer := e.After(time.Second, func() { fired = true })
	timer.Cancel()
	e.RunUntil(start.Add(time.Minute))
	if fired {
		t.Error("cancelled timer fired")
	}
	timer.Cancel() // double cancel is a no-op
}

func TestEventsScheduleEvents(t *testing.T) {
	e := NewEngine(start, 1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(time.Second, chain)
	e.RunUntil(start.Add(time.Hour))
	if count != 5 {
		t.Errorf("chain ran %d times", count)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(start, 1)
	fired := false
	e.After(2*time.Hour, func() { fired = true })
	e.RunUntil(start.Add(time.Hour))
	if fired {
		t.Error("event beyond deadline fired")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d", e.Pending())
	}
	// Resume past it.
	e.RunUntil(start.Add(3 * time.Hour))
	if !fired {
		t.Error("event did not fire after resume")
	}
}

func TestEveryFixed(t *testing.T) {
	e := NewEngine(start, 1)
	var times []time.Time
	stop := e.EveryFixed(start.Add(time.Minute), time.Minute, func(now time.Time) {
		times = append(times, now)
		if len(times) == 3 {
			// stop is captured below; cancel via closure variable.
		}
	})
	e.RunUntil(start.Add(5 * time.Minute))
	stop()
	e.RunUntil(start.Add(10 * time.Minute))
	if len(times) != 5 {
		t.Fatalf("ticked %d times, want 5", len(times))
	}
	for i, ts := range times {
		want := start.Add(time.Duration(i+1) * time.Minute)
		if !ts.Equal(want) {
			t.Errorf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	e := NewEngine(start, 1)
	count := 0
	var stop func()
	stop = e.EveryFixed(start, time.Second, func(time.Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.RunUntil(start.Add(time.Hour))
	if count != 3 {
		t.Errorf("ran %d times after self-stop", count)
	}
}

func TestEveryJittered(t *testing.T) {
	e := NewEngine(start, 7)
	rng := e.RNG("jitter")
	var times []time.Time
	e.Every(start, func() time.Duration {
		return time.Second + time.Duration(rng.Intn(1000))*time.Millisecond
	}, func(now time.Time) {
		times = append(times, now)
	})
	e.RunUntil(start.Add(30 * time.Second))
	if len(times) < 20 || len(times) > 31 {
		t.Fatalf("jittered ticks = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < time.Second || gap > 2*time.Second {
			t.Fatalf("gap %v out of jitter bounds", gap)
		}
	}
}

func TestRNGDeterminismAndIndependence(t *testing.T) {
	a1 := NewEngine(start, 5).RNG("tag-1")
	a2 := NewEngine(start, 5).RNG("tag-1")
	b := NewEngine(start, 5).RNG("tag-2")
	other := NewEngine(start, 6).RNG("tag-1")
	va1, va2, vb, vo := a1.Uint64(), a2.Uint64(), b.Uint64(), other.Uint64()
	if va1 != va2 {
		t.Error("same seed+name must produce identical streams")
	}
	if va1 == vb {
		t.Error("different names must produce different streams")
	}
	if va1 == vo {
		t.Error("different seeds must produce different streams")
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine(start, 1).Schedule(start, nil)
}

func TestEveryFixedBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine(start, 1).EveryFixed(start, 0, func(time.Time) {})
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine(start, 99)
		rng := e.RNG("load")
		var fired []time.Duration
		for i := 0; i < 2000; i++ {
			d := time.Duration(rng.Intn(3_600_000)) * time.Millisecond
			e.Schedule(start.Add(d), func() { fired = append(fired, e.Now().Sub(start)) })
		}
		e.RunUntil(start.Add(time.Hour))
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 2000 {
		t.Fatalf("fired %d/%d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay diverged")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("events fired out of order")
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(start, 1)
		rng := e.RNG("bench")
		for j := 0; j < 1000; j++ {
			e.Schedule(start.Add(time.Duration(rng.Intn(1000))*time.Second), func() {})
		}
		e.RunUntil(start.Add(2000 * time.Second))
	}
}

func BenchmarkEveryFixedTicks(b *testing.B) {
	e := NewEngine(start, 1)
	ticks := 0
	e.EveryFixed(start, time.Second, func(time.Time) { ticks++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunFor(time.Second)
	}
}
