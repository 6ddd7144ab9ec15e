package device

import (
	"tagsim/internal/geo"
)

// Regions partitions the rows of the fleet's slice grid — the fixed
// sliceCellM rows of its ENU plane, over the span of the devices' homes
// — into contiguous bands: the unit of work the region-sharded scan tick
// distributes over pooled workers. A band is a pure spatial key: Of maps
// any position to the band its clamped row falls in. Every worker
// queries through its own Searcher, so bands only balance the work;
// they carry no correctness.
//
// Regions carries no mutable state; values are safe to copy and use
// from any goroutine.
type Regions struct {
	f       *Fleet
	rowsPer int
	count   int
}

// Regions partitions the rows into at most n bands. Fleets whose homes
// span a single row (or none), and n <= 1, collapse to one region — the
// caller's cue that sharding has nothing to shard.
func (f *Fleet) Regions(n int) Regions {
	if f.rows <= 1 || n <= 1 {
		return Regions{f: f, rowsPer: 1, count: 1}
	}
	if n > f.rows {
		n = f.rows
	}
	rowsPer := (f.rows + n - 1) / n
	return Regions{f: f, rowsPer: rowsPer, count: (f.rows + rowsPer - 1) / rowsPer}
}

// Count returns the number of bands (>= 1).
func (r Regions) Count() int {
	if r.count < 1 {
		return 1
	}
	return r.count
}

// Of maps a position to its band in [0, Count()). Positions outside the
// homes' rows clamp to the nearest one.
func (r Regions) Of(pos geo.LatLon) int {
	if r.count <= 1 {
		return 0
	}
	f := r.f
	_, y := f.enu.Forward(pos)
	row := min(max(cellOf(y)-f.rowLo, 0), f.rows-1)
	return row / r.rowsPer
}
