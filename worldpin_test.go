package tagsim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"tagsim"
	"tagsim/internal/pipeline"
	"tagsim/internal/trace"
)

// worldOutputDigests pins what a tiny wild campaign hands out: the
// per-country ground-truth and crawl CSVs `tagsim -scenario wild`
// writes, plus its reports.col and truth.col logs. Each value is the
// digest `sha256sum * | sha256sum` prints over those files, so seed 1
// can be checked against
//
//	go run ./cmd/tagsim -scenario wild -seed 1 -scale 0.02 -workers 2 -reportlog -truthlog -out D
var worldOutputDigests = map[int64]string{
	1: "c9bb74d17e2c3a426ad0c5d105f29375d7fd316714431323df713993cb6d9646",
	2: "1c2811e297b8f4a8944fcc098997587617245046959e1980fd3a88b6519d0d44",
	3: "e5d5d4539203e8a4f908fa25cfcefd78603a0997bc95bcfd995a173351d489d7",
}

// wildOutputFiles runs the campaign at seed and workers the way
// cmd/tagsim does — one pipeline feeding the dataset collector and both
// columnar sinks — and returns the files it would write, by name.
func wildOutputFiles(t *testing.T, seed int64, workers int) map[string][]byte {
	t.Helper()
	var reports, truth bytes.Buffer
	res, err := tagsim.CollectWild(tagsim.WildConfig{Seed: seed, Scale: 0.02, Workers: workers},
		pipeline.NewReportSink(&reports, 0), pipeline.NewTruthSink(&truth, 0))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"reports.col": reports.Bytes(), "truth.col": truth.Bytes()}
	for _, cr := range res.Countries {
		var buf bytes.Buffer
		if err := trace.WriteGroundTruthCSV(&buf, cr.Dataset.GroundTruth); err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("groundtruth_%s.csv", cr.Spec.Code)] = buf.Bytes()
		for _, v := range []tagsim.Vendor{tagsim.VendorApple, tagsim.VendorSamsung} {
			var buf bytes.Buffer
			if err := trace.WriteCrawlCSV(&buf, cr.Dataset.CrawlsFor(v)); err != nil {
				t.Fatal(err)
			}
			files[fmt.Sprintf("crawls_%s_%s.csv", cr.Spec.Code, v)] = buf.Bytes()
		}
	}
	return files
}

// filesDigest is `sha256sum * | sha256sum` over the named files.
func filesDigest(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var list bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&list, "%x  %s\n", sha256.Sum256(files[name]), name)
	}
	return fmt.Sprintf("%x", sha256.Sum256(list.Bytes()))
}

// TestWildOutputDigests pins the bytes of every record stream a
// campaign's worlds hand out, at one and two workers.
func TestWildOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six tiny campaigns")
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 2} {
			if got, want := filesDigest(wildOutputFiles(t, seed, workers)), worldOutputDigests[seed]; got != want {
				t.Errorf("seed %d, workers %d: output digest %s, pinned %s", seed, workers, got, want)
			}
		}
	}
}
