package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tagsim/internal/geo"
)

var t0 = time.Date(2022, 3, 15, 9, 0, 0, 0, time.UTC)

func mkGT(offset time.Duration, lat, lon float64) GroundTruth {
	return GroundTruth{
		T:          t0.Add(offset),
		Pos:        geo.LatLon{Lat: lat, Lon: lon},
		VantageID:  "vp1",
		SpeedKmh:   4.5,
		UploadedAt: t0.Add(offset + 5*time.Minute),
	}
}

func TestVendorStringParse(t *testing.T) {
	for _, v := range []Vendor{VendorApple, VendorSamsung, VendorCombined, VendorOther} {
		parsed, err := ParseVendor(v.String())
		if err != nil {
			t.Fatalf("ParseVendor(%q): %v", v.String(), err)
		}
		if parsed != v {
			t.Errorf("round trip %v != %v", parsed, v)
		}
	}
	if _, err := ParseVendor("Tile"); err == nil {
		t.Error("ParseVendor should reject unknown vendors")
	}
	if got := Vendor(99).String(); got != "Vendor(99)" {
		t.Errorf("unknown vendor String = %q", got)
	}
}

func TestVendorTextMarshal(t *testing.T) {
	b, err := VendorSamsung.MarshalText()
	if err != nil || string(b) != "Samsung" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var v Vendor
	if err := v.UnmarshalText([]byte("Apple")); err != nil || v != VendorApple {
		t.Fatalf("UnmarshalText = %v, %v", v, err)
	}
	if err := v.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText should reject unknown vendor")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	records := []CrawlRecord{
		{CrawlT: t0, TagID: "airtag-1", Vendor: VendorApple, Pos: geo.LatLon{Lat: 24.5, Lon: 54.4}, ReportedAt: t0.Add(-2 * time.Minute), AgeMinutes: 2},
		{CrawlT: t0.Add(time.Minute), TagID: "smarttag-1", Vendor: VendorSamsung, Pos: geo.LatLon{Lat: 24.6, Lon: 54.5}, ReportedAt: t0.Add(time.Minute), AgeMinutes: 0},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("expected 2 lines, got %d", lines)
	}
	back, err := ReadJSONL[CrawlRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d records", len(back))
	}
	for i := range back {
		if !back[i].CrawlT.Equal(records[i].CrawlT) || back[i].TagID != records[i].TagID ||
			back[i].Vendor != records[i].Vendor || back[i].Pos != records[i].Pos ||
			back[i].AgeMinutes != records[i].AgeMinutes {
			t.Errorf("record %d mismatch: %+v vs %+v", i, back[i], records[i])
		}
	}
}

func TestReadJSONLGarbage(t *testing.T) {
	if _, err := ReadJSONL[CrawlRecord](strings.NewReader("{not json")); err == nil {
		t.Error("expected error on malformed input")
	}
	out, err := ReadJSONL[CrawlRecord](strings.NewReader(""))
	if err != nil || len(out) != 0 {
		t.Errorf("empty input: %v, %v", out, err)
	}
}

func TestIsNow(t *testing.T) {
	if !(CrawlRecord{AgeMinutes: 0}).IsNow() {
		t.Error("age 0 should be Now")
	}
	if (CrawlRecord{AgeMinutes: 3}).IsNow() {
		t.Error("age 3 should not be Now")
	}
}

func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var records []GroundTruth
	for i := 0; i < 100; i++ {
		records = append(records, mkGT(time.Duration(rng.Intn(3600))*time.Second, 24.5, 54.4))
	}
	SortByTime(records)
	for i := 1; i < len(records); i++ {
		if records[i].T.Before(records[i-1].T) {
			t.Fatal("not sorted")
		}
	}
}

func TestMerge(t *testing.T) {
	a := []GroundTruth{mkGT(0, 1, 1), mkGT(2*time.Minute, 1, 1), mkGT(4*time.Minute, 1, 1)}
	b := []GroundTruth{mkGT(time.Minute, 2, 2), mkGT(3*time.Minute, 2, 2)}
	merged := Merge(a, b)
	if len(merged) != 5 {
		t.Fatalf("merged %d records", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].T.Before(merged[i-1].T) {
			t.Fatal("merge not sorted")
		}
	}
	// Merging with empty.
	if got := Merge(a, nil); len(got) != 3 {
		t.Errorf("merge with nil = %d records", len(got))
	}
	if got := Merge(nil, b); len(got) != 2 {
		t.Errorf("merge nil with b = %d records", len(got))
	}
}

func TestFilter(t *testing.T) {
	records := []CrawlRecord{{AgeMinutes: 0}, {AgeMinutes: 5}, {AgeMinutes: 0}}
	now := Filter(records, CrawlRecord.IsNow)
	if len(now) != 2 {
		t.Fatalf("filtered %d records, want 2", len(now))
	}
}

func TestGroundTruthCSVRoundTrip(t *testing.T) {
	records := []GroundTruth{mkGT(0, 24.5246, 54.4349), mkGT(5*time.Second, 24.5247, 54.4350)}
	var buf bytes.Buffer
	if err := WriteGroundTruthCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGroundTruthCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(records) {
		t.Fatalf("read %d records", len(back))
	}
	for i := range back {
		if !back[i].T.Equal(records[i].T) || back[i].VantageID != records[i].VantageID {
			t.Errorf("record %d mismatch", i)
		}
		if geo.Distance(back[i].Pos, records[i].Pos) > 0.05 {
			t.Errorf("record %d position drifted", i)
		}
	}
}

func TestCrawlCSVRoundTrip(t *testing.T) {
	records := []CrawlRecord{
		{CrawlT: t0, TagID: "a1", Vendor: VendorApple, Pos: geo.LatLon{Lat: 1, Lon: 2}, ReportedAt: t0, AgeMinutes: 0},
		{CrawlT: t0.Add(time.Minute), TagID: "s1", Vendor: VendorSamsung, Pos: geo.LatLon{Lat: 3, Lon: 4}, ReportedAt: t0, AgeMinutes: 1},
	}
	var buf bytes.Buffer
	if err := WriteCrawlCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCrawlCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].TagID != "a1" || back[1].Vendor != VendorSamsung || back[1].AgeMinutes != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCrawlCSV(strings.NewReader("crawl_t,tag_id\nbad,row\n")); err == nil {
		t.Error("expected column-count error")
	}
	if _, err := ReadGroundTruthCSV(strings.NewReader("h\n\"")); err == nil {
		t.Error("expected csv parse error")
	}
	out, err := ReadCrawlCSV(strings.NewReader(""))
	if err != nil || out != nil {
		t.Errorf("empty csv: %v, %v", out, err)
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	records := make([]GroundTruth, 1000)
	for i := range records {
		records[i] = mkGT(time.Duration(i)*5*time.Second, 24.5, 54.4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, records); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortByTime(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]GroundTruth, 10000)
	for i := range base {
		base[i] = mkGT(time.Duration(rng.Intn(864000))*time.Second, 24.5, 54.4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := append([]GroundTruth(nil), base...)
		SortByTime(records)
	}
}
