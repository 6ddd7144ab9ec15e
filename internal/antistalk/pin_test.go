package antistalk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"
)

// stalkDigests pins the bytes of the default victim's observation
// stream, whose positions come from mobility.DailyRoutine: a SHA-256 over
// each observation's unix-nanosecond time, address, position and RSSI
// bits and vendor flag, for a 72 h episode, keyed by seed and SameVendor.
var stalkDigests = map[string]string{
	"seed1/same=false": "a49087c476cd8442942a52e66bdd109fae8e21f273bd864a13d3bf8e1938e076",
	"seed1/same=true":  "602cf07e1d50103c1cee31a125b65d7870498c16b8162463eba9d9ba70c93875",
	"seed2/same=false": "f9f832753f655f155ea85627e168faa7e98cdf3f88d34775318e42e5c5e1b834",
	"seed2/same=true":  "370ea77b7a9c150a8dac38ae1489e9ae3a262c1398ffd4889f6190f0419b82e8",
	"seed3/same=false": "c117684fea7d69f27fd1117b1757e3a121c4299a945d99dd7964e5481f39a177",
	"seed3/same=true":  "9a418d9ba4fecbc2bf00418f21a187dfb90befdbb22e387ad68584d9296a6663",
}

func TestScenarioGenerateDigests(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, same := range []bool{false, true} {
			key := fmt.Sprintf("seed%d/same=%v", seed, same)
			stream := StalkScenario{Seed: seed, Duration: 72 * time.Hour, SameVendor: same}.Generate()
			h := sha256.New()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			for _, o := range stream {
				put(uint64(o.T.UnixNano()))
				h.Write(o.Addr[:])
				put(math.Float64bits(o.Pos.Lat))
				put(math.Float64bits(o.Pos.Lon))
				put(math.Float64bits(o.RSSI))
				if o.SameVendor {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != stalkDigests[key] {
				t.Errorf("%s: %d observations digest %s, pinned %s", key, len(stream), got, stalkDigests[key])
			}
		}
	}
}
