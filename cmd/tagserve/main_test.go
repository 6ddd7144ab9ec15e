package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"log"
	"math"
	"testing"
	"time"

	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// campaignStoreDigests pins what campaign mode leaves in each vendor's
// store after a tiny campaign (Scale 0.02, 200 devices per city, 16
// shards, no history limit, in memory), hashed as tagbench's
// snapshotDigest does.
var campaignStoreDigests = map[int64]map[trace.Vendor]string{
	1: {
		trace.VendorApple:   "f0ae39e9bcd2c6243d33deb13984fbf363d8d549ea8f767140c4bee8955bbee8",
		trace.VendorSamsung: "656b8e8fb984c29660713d0cb128ad2d6d10f4c2243a1e97bbb5c13de021da13",
	},
	2: {
		trace.VendorApple:   "ee4fb342adbf94475344801c41319359c35d0de00e2530ad3b8031e9ee7491b4",
		trace.VendorSamsung: "83ec7e9c2fe92a104f5148a15c2093770f43cd2fc16ab65b55441db45d9240d5",
	},
}

// TestCampaignStoreSnapshot streams the campaign into fresh stores the
// way `tagserve` does and checks each vendor's snapshot against its pin,
// at one and two workers.
func TestCampaignStoreSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four tiny campaigns")
	}
	prev := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(prev) })
	for _, seed := range []int64{1, 2} {
		for _, workers := range []int{1, 2} {
			services, err := servicesFromCampaign(seed, 0.02, workers, 200, 16, 0, store.Tiering{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
				snap := services[v].Snapshot()
				if snap.Accepted == 0 {
					t.Fatalf("seed %d, workers %d, %s: campaign accepted no reports", seed, workers, v)
				}
				if got, want := snapshotDigest(snap), campaignStoreDigests[seed][v]; got != want {
					t.Errorf("seed %d, workers %d, %s: snapshot digest %s, pinned %s", seed, workers, v, got, want)
				}
			}
		}
	}
}

// snapshotDigest hashes every counter, tag and history report of s.
func snapshotDigest(s store.Snapshot) string {
	h := sha256.New()
	var b []byte
	putTime := func(t time.Time) { b = binary.LittleEndian.AppendUint64(b, uint64(t.UnixNano())) }
	putF := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	putS := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b = binary.LittleEndian.AppendUint64(b, s.Accepted)
	b = binary.LittleEndian.AppendUint64(b, s.Rejected)
	for _, t := range s.Tags {
		putS(t.ID)
		putF(t.Pos.Lat)
		putF(t.Pos.Lon)
		putTime(t.At)
		b = append(b, byte(len(t.History)>>8), byte(len(t.History)))
		if t.HasLast {
			b = append(b, 1)
		}
		for _, rep := range t.History {
			putTime(rep.T)
			putTime(rep.HeardAt)
			putS(rep.TagID)
			b = append(b, byte(rep.Vendor))
			putS(rep.ReporterID)
			putF(rep.Pos.Lat)
			putF(rep.Pos.Lon)
			putF(rep.RSSI)
		}
		h.Write(b)
		b = b[:0]
	}
	return hex.EncodeToString(h.Sum(nil))
}
