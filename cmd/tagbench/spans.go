package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Name is "<layer>.<op>"; Trace groups
// the spans of one request or stage (the id of its topmost span below
// the run root); Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name attributes its time to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder holds a traced run's spans in memory; they are written out
// once, when the run ends. Safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(parent int, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	return r.push(parent, name, now, now)
}

func (r *recorder) push(parent int, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	tr := id
	if parent >= 0 && r.spans[parent].Parent >= 0 {
		tr = r.spans[parent].Trace
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: tr, Name: name, Start: start, End: end})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-timed span, for calls whose name depends on
// their outcome (a cache hit or miss).
func (r *recorder) add(parent int, name string, start, end time.Time) {
	r.push(parent, name, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds())
}

// do runs fn inside a span.
func (r *recorder) do(parent int, name string, fn func(id int)) {
	id := r.begin(parent, name)
	fn(id)
	r.end(id)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps the spans as JSON.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStats aggregates spans by name.
type spanStats struct {
	count    int
	sum, max time.Duration
}

func (s spanStats) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count) / 1e3
}

// profile is what a traced run reports: per-name totals, self time per
// layer under each root, and how much of a root's wall time its
// children cover.
type profile struct {
	byName map[string]spanStats
	self   map[int]map[string]time.Duration // root id -> layer -> self time
	spans  []span
}

func newProfile(spans []span) *profile {
	p := &profile{byName: map[string]spanStats{}, self: map[int]map[string]time.Duration{}, spans: spans}
	children := make([][]span, len(spans))
	rootOf := make([]int, len(spans)) // a parent's id is always below its children's
	for _, s := range spans {
		rootOf[s.ID] = s.ID
		if s.Parent >= 0 {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		st := p.byName[s.Name]
		st.count++
		st.sum += s.dur()
		st.max = max(st.max, s.dur())
		p.byName[s.Name] = st
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		root := rootOf[s.ID]
		if p.self[root] == nil {
			p.self[root] = map[string]time.Duration{}
		}
		p.self[root][s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return p
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// root returns the first root span with the given name.
func (p *profile) root(name string) (span, bool) {
	for _, s := range p.spans {
		if s.Parent < 0 && s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// attribution splits a root's wall time into the part its direct
// children cover and the rest.
func (p *profile) attribution(root span) (attributed, unattributed time.Duration) {
	var kids []span
	for _, s := range p.spans {
		if s.Parent == root.ID {
			kids = append(kids, s)
		}
	}
	attributed = covered(root, kids)
	return attributed, root.dur() - attributed
}

// checkNesting reports the first span that ends before it starts or
// leaves its parent's interval.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
