package wifinet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"tagsim/internal/trace"
)

var t0 = time.Date(2022, 3, 7, 12, 0, 0, 0, time.UTC)

func TestClassifyDst(t *testing.T) {
	cases := []struct {
		addr string
		want trace.Vendor
	}{
		{"17.253.144.10", trace.VendorApple},
		{"17.0.0.1", trace.VendorApple},
		{"210.118.50.2", trace.VendorSamsung},
		{"203.254.1.1", trace.VendorSamsung},
		{"142.250.80.1", trace.VendorOther},
		{"8.8.8.8", trace.VendorOther},
	}
	for _, c := range cases {
		if got := ClassifyDst(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("ClassifyDst(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestVendorFlowDstRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		for i := 0; i < 200; i++ {
			dst := VendorFlowDst(v, rng)
			if got := ClassifyDst(dst); got != v {
				t.Fatalf("%v flow to %v classified as %v", v, dst, got)
			}
		}
	}
	// Other-vendor traffic never classifies as Apple/Samsung.
	for i := 0; i < 200; i++ {
		dst := VendorFlowDst(trace.VendorOther, rng)
		if got := ClassifyDst(dst); got != trace.VendorOther {
			t.Fatalf("other flow to %v classified as %v", dst, got)
		}
	}
}

func TestMonitorDistinctDevices(t *testing.T) {
	m := NewMonitor()
	rng := rand.New(rand.NewSource(2))
	// 3 Apple devices, each emitting many flows; 1 Samsung.
	for i := 0; i < 3; i++ {
		for f := 0; f < 20; f++ {
			m.Observe(t0.Add(time.Duration(f)*time.Minute), fmt.Sprintf("iphone-%d", i), VendorFlowDst(trace.VendorApple, rng))
		}
	}
	m.Observe(t0.Add(5*time.Minute), "galaxy-1", VendorFlowDst(trace.VendorSamsung, rng))

	counts := m.HourlyCounts()
	if len(counts) != 1 {
		t.Fatalf("got %d hourly buckets, want 1", len(counts))
	}
	c := counts[0]
	if c.Apple != 3 {
		t.Errorf("Apple count = %d, want 3 (distinct devices, not flows)", c.Apple)
	}
	if c.Samsung != 1 {
		t.Errorf("Samsung count = %d, want 1", c.Samsung)
	}
}

func TestMonitorHourBuckets(t *testing.T) {
	m := NewMonitor()
	rng := rand.New(rand.NewSource(3))
	m.Observe(t0, "a", VendorFlowDst(trace.VendorApple, rng))
	m.Observe(t0.Add(time.Hour), "a", VendorFlowDst(trace.VendorApple, rng))
	m.Observe(t0.Add(time.Hour), "b", VendorFlowDst(trace.VendorSamsung, rng))

	counts := m.HourlyCounts()
	if len(counts) != 2 {
		t.Fatalf("got %d hourly buckets", len(counts))
	}
	if !counts[0].T.Before(counts[1].T) {
		t.Error("buckets not sorted")
	}
	if counts[0].Apple != 1 || counts[0].Samsung != 0 {
		t.Errorf("hour 0 = %+v", counts[0])
	}
	if counts[1].Apple != 1 || counts[1].Samsung != 1 {
		t.Errorf("hour 1 = %+v", counts[1])
	}
}

func TestMonitorEmptyHour(t *testing.T) {
	m := NewMonitor()
	if len(m.HourlyCounts()) != 0 {
		t.Error("empty monitor should export no buckets")
	}
}

func TestRandAddrInStaysInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, ps := range [][]netip.Prefix{applePrefixes, samsungPrefixes, otherPrefixes} {
		for _, p := range ps {
			for i := 0; i < 100; i++ {
				if a := randAddrIn(p, rng); !p.Contains(a) {
					t.Fatalf("address %v escaped prefix %v", a, p)
				}
			}
		}
	}
}

func BenchmarkObserve(b *testing.B) {
	m := NewMonitor()
	rng := rand.New(rand.NewSource(1))
	dst := VendorFlowDst(trace.VendorApple, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(t0.Add(time.Duration(i)*time.Second), "dev", dst)
	}
}
