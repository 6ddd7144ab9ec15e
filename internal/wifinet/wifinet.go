// Package wifinet reproduces the paper's cafeteria instrumentation: the
// university IT team counted Apple and Samsung devices on the cafeteria
// access point by inspecting the *destinations* of each device's traffic,
// because MAC randomization hides vendor OUIs — Apple and Samsung devices
// talk to disjoint, proprietary datacenter ranges.
//
// The monitor here does the same: devices associated with the AP emit
// flows toward their vendor's service prefixes, and the monitor classifies
// each device by where its traffic goes, aggregating anonymized per-hour
// vendor counts.
package wifinet

import (
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"tagsim/internal/trace"
)

// Vendor service prefixes. Apple famously owns 17.0.0.0/8 outright;
// Samsung's SmartThings and account services live in Samsung-registered
// ranges. (Values are representative registry allocations; the classifier
// only needs them to be disjoint.)
var (
	applePrefixes = []netip.Prefix{
		netip.MustParsePrefix("17.0.0.0/8"),
	}
	samsungPrefixes = []netip.Prefix{
		netip.MustParsePrefix("210.118.0.0/16"),
		netip.MustParsePrefix("203.254.0.0/16"),
	}
	otherPrefixes = []netip.Prefix{
		netip.MustParsePrefix("142.250.0.0/15"), // generic CDN traffic
		netip.MustParsePrefix("104.16.0.0/13"),
	}
)

// ClassifyDst maps a flow destination to the vendor it identifies.
func ClassifyDst(a netip.Addr) trace.Vendor {
	for _, p := range applePrefixes {
		if p.Contains(a) {
			return trace.VendorApple
		}
	}
	for _, p := range samsungPrefixes {
		if p.Contains(a) {
			return trace.VendorSamsung
		}
	}
	return trace.VendorOther
}

// VendorFlowDst draws a plausible service destination for a device of the
// given vendor. Non-Apple/Samsung devices produce generic CDN traffic.
func VendorFlowDst(v trace.Vendor, rng *rand.Rand) netip.Addr {
	var prefixes []netip.Prefix
	switch v {
	case trace.VendorApple:
		prefixes = applePrefixes
	case trace.VendorSamsung:
		prefixes = samsungPrefixes
	default:
		prefixes = otherPrefixes
	}
	p := prefixes[rng.Intn(len(prefixes))]
	return randAddrIn(p, rng)
}

// randAddrIn picks a uniform random address inside an IPv4 prefix.
func randAddrIn(p netip.Prefix, rng *rand.Rand) netip.Addr {
	base := p.Addr().As4()
	hostBits := 32 - p.Bits()
	val := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	if hostBits > 0 {
		val |= uint32(rng.Int63()) & (1<<uint(hostBits) - 1)
	}
	return netip.AddrFrom4([4]byte{byte(val >> 24), byte(val >> 16), byte(val >> 8), byte(val)})
}

// Monitor aggregates per-hour distinct-device counts by classified vendor.
// Device identifiers are only used for deduplication within the hour and
// never exported — matching the paper's anonymization.
type Monitor struct {
	hours map[time.Time]*hourBucket
}

type hourBucket struct {
	byVendor map[trace.Vendor]map[string]struct{}
}

// NewMonitor creates an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{hours: make(map[time.Time]*hourBucket)}
}

// Observe records one flow from an associated device at time t.
func (m *Monitor) Observe(t time.Time, deviceID string, dst netip.Addr) {
	hour := t.UTC().Truncate(time.Hour)
	b, ok := m.hours[hour]
	if !ok {
		b = &hourBucket{byVendor: make(map[trace.Vendor]map[string]struct{})}
		m.hours[hour] = b
	}
	v := ClassifyDst(dst)
	set, ok := b.byVendor[v]
	if !ok {
		set = make(map[string]struct{})
		b.byVendor[v] = set
	}
	set[deviceID] = struct{}{}
}

// HourlyCounts exports the anonymized per-hour counts, sorted by hour.
func (m *Monitor) HourlyCounts() []trace.DeviceCount {
	hours := make([]time.Time, 0, len(m.hours))
	for h := range m.hours {
		hours = append(hours, h)
	}
	sort.Slice(hours, func(i, j int) bool { return hours[i].Before(hours[j]) })
	out := make([]trace.DeviceCount, 0, len(hours))
	for _, h := range hours {
		b := m.hours[h]
		out = append(out, trace.DeviceCount{
			T:       h,
			Apple:   len(b.byVendor[trace.VendorApple]),
			Samsung: len(b.byVendor[trace.VendorSamsung]),
			Other:   len(b.byVendor[trace.VendorOther]),
		})
	}
	return out
}
