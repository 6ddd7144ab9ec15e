// Package sim provides the discrete-event simulation engine every
// experiment runs on: a virtual clock, an event heap, cancellable timers,
// periodic processes, and deterministic per-entity random number streams.
//
// Determinism is a hard requirement — the paper's experiments must be
// reproducible from a seed — so the engine is strictly single-goroutine:
// events fire in (time, scheduling-order) sequence, and every entity draws
// from its own named RNG stream so adding an entity never perturbs the
// draws of another.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now        time.Time
	queue      eventQueue
	seq        uint64
	streamBase StreamSeed // hash state of "<seed>/", root of every named stream
}

// NewEngine creates an engine with the virtual clock set to start.
func NewEngine(start time.Time, seed int64) *Engine {
	return &Engine{now: start, streamBase: streamBase(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// RNG derives a deterministic random stream for a named entity. Streams
// with the same (engine seed, name) are identical; distinct names are
// statistically independent. The seed derivation is the frozen FNV-1a
// construction documented on StreamSeed; hot paths that cannot afford
// this call's allocations derive the same sequences via StreamSeed and
// a reusable Stream.
func (e *Engine) RNG(name string) *rand.Rand {
	return rand.New(rand.NewSource(e.streamBase.String(name).Seed()))
}

// Timer is a handle to a scheduled event.
type Timer struct {
	at        time.Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int // heap index, -1 once popped
}

// Cancel prevents the timer from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *Timer) Cancel() { t.cancelled = true }

// Schedule runs fn at the given virtual time. Times not after the current
// instant run "now" (on the next Step), preserving causal order.
func (e *Engine) Schedule(at time.Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if at.Before(e.now) {
		at = e.now
	}
	t := &Timer{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, t)
	return t
}

// After runs fn after a virtual delay.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	return e.Schedule(e.now.Add(d), fn)
}

// Every schedules a periodic process: fn runs at start, then repeatedly
// after interval() — letting callers jitter each period. A nil interval
// function means a fixed period and is expressed via EveryFixed. The
// returned Stop function halts the process.
func (e *Engine) Every(start time.Time, interval func() time.Duration, fn func(now time.Time)) (stop func()) {
	if interval == nil {
		panic("sim: Every with nil interval function")
	}
	stopped := false
	var tick func()
	var timer *Timer
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		if stopped { // fn may call stop
			return
		}
		d := interval()
		if d <= 0 {
			d = time.Nanosecond
		}
		timer = e.After(d, tick)
	}
	timer = e.Schedule(start, tick)
	return func() {
		stopped = true
		if timer != nil {
			timer.Cancel()
		}
	}
}

// EveryFixed is Every with a constant period.
func (e *Engine) EveryFixed(start time.Time, period time.Duration, fn func(now time.Time)) (stop func()) {
	if period <= 0 {
		panic("sim: EveryFixed with non-positive period")
	}
	return e.Every(start, func() time.Duration { return period }, fn)
}

// Step executes the next pending event, advancing the clock to it. It
// returns false when the queue is empty.
func (e *Engine) Step() bool {
	for {
		if e.queue.Len() == 0 {
			return false
		}
		t := heap.Pop(&e.queue).(*Timer)
		if t.cancelled {
			continue
		}
		e.now = t.at
		t.fn()
		return true
	}
}

// RunUntil executes events until the queue is exhausted or the next event
// is after the deadline. The clock ends at the deadline if it was reached,
// otherwise at the last event executed.
func (e *Engine) RunUntil(deadline time.Time) {
	for {
		if e.queue.Len() == 0 {
			break
		}
		next := e.queue[0].at
		if next.After(deadline) {
			break
		}
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// RunFor runs the simulation for a virtual duration from the current time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Pending returns the number of queued (uncancelled at pop time) events.
func (e *Engine) Pending() int { return e.queue.Len() }

// eventQueue is a min-heap ordered by (time, sequence number): ties in
// time fire in scheduling order, which makes the engine deterministic.
type eventQueue []*Timer

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*q = old[:n-1]
	return t
}
