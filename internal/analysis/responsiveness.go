package analysis

import (
	"iter"
	"slices"
	"sort"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// Episode is one contiguous stay of the vantage point near a place: the
// unit of the paper's backtracking analysis ("half of a victim's exact
// movements can be backtracked with a one-hour delay").
type Episode struct {
	Anchor geo.LatLon
	Start  time.Time
	End    time.Time
}

// Duration returns how long the episode lasted.
func (e Episode) Duration() time.Duration { return e.End.Sub(e.Start) }

// Episodes segments ground truth into place episodes: a new episode starts
// whenever the position drifts more than anchorRadiusM from the current
// episode's anchor. Episodes shorter than minDwell are dropped (driving
// past a place is not a stay).
func Episodes(fixes []trace.GroundTruth, anchorRadiusM float64, minDwell time.Duration) []Episode {
	return EpisodesOf(slices.Values(fixes), anchorRadiusM, minDwell)
}

// EpisodesOf is Episodes over a fix sequence, such as TruthIndex.All.
func EpisodesOf(fixes iter.Seq[trace.GroundTruth], anchorRadiusM float64, minDwell time.Duration) []Episode {
	if anchorRadiusM <= 0 {
		anchorRadiusM = 25
	}
	var out []Episode
	var cur *Episode
	for f := range fixes {
		if cur != nil && geo.Distance(cur.Anchor, f.Pos) <= anchorRadiusM {
			cur.End = f.T
			continue
		}
		if cur != nil && cur.Duration() >= minDwell {
			out = append(out, *cur)
		}
		cur = &Episode{Anchor: f.Pos, Start: f.T, End: f.T}
	}
	if cur != nil && cur.Duration() >= minDwell {
		out = append(out, *cur)
	}
	return out
}

// HitDelay is the responsiveness sample for one episode: how long after
// the vantage point arrived somewhere did the first accurate report of
// that place exist.
type HitDelay struct {
	Episode Episode
	// Delay is first accurate report time minus episode start; negative
	// is impossible (reports before arrival are of the previous place).
	Delay time.Duration
	// Found reports whether any accurate report ever appeared.
	Found bool
}

// FirstHitDelays computes, per episode, the delay until the first crawled
// report within radiusM of the episode anchor, looking at reports made
// between the episode start and the episode end plus maxLag (a stalker
// backtracking with delay D tolerates reports up to D after departure).
func FirstHitDelays(episodes []Episode, reports []trace.CrawlRecord, radiusM float64, maxLag time.Duration) []HitDelay {
	distinct := distinctByReportTime(reports)
	out := make([]HitDelay, 0, len(episodes))
	for _, ep := range episodes {
		hd := HitDelay{Episode: ep}
		deadline := ep.End.Add(maxLag)
		// distinct is sorted by ReportedAt: seek the episode's first
		// report instead of skipping the ones before it.
		first := sort.Search(len(distinct), func(i int) bool { return !distinct[i].ReportedAt.Before(ep.Start) })
		for _, r := range distinct[first:] {
			if r.ReportedAt.After(deadline) {
				break
			}
			if geo.Distance(r.Pos, ep.Anchor) <= radiusM {
				hd.Delay = r.ReportedAt.Sub(ep.Start)
				hd.Found = true
				break
			}
		}
		out = append(out, hd)
	}
	return out
}

// BacktrackFraction returns the fraction of episodes whose first accurate
// report appeared within delay — the paper's headline: with radius 10 m
// and delay one hour, about half of a victim's movements are exposed.
func BacktrackFraction(delays []HitDelay, delay time.Duration) float64 {
	if len(delays) == 0 {
		return 0
	}
	hit := 0
	for _, d := range delays {
		if d.Found && d.Delay <= delay {
			hit++
		}
	}
	return float64(hit) / float64(len(delays))
}
