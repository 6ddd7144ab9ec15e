package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/trace"
)

// truthFixture builds n time-sorted fixes with irregular spacing
// (including gaps larger than the analysis MaxGap) and varied payloads.
func truthFixture(n int, seed int64) []trace.GroundTruth {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	fixes := make([]trace.GroundTruth, n)
	cur := t0
	for i := range fixes {
		cur = cur.Add(time.Duration(1+rng.Intn(240)) * time.Second)
		if rng.Intn(20) == 0 {
			cur = cur.Add(time.Duration(5+rng.Intn(30)) * time.Minute) // coverage gap
		}
		fixes[i] = trace.GroundTruth{
			T:          cur,
			Pos:        geo.LatLon{Lat: 48 + rng.Float64(), Lon: 11 + rng.Float64()},
			VantageID:  fmt.Sprintf("vp-%d", rng.Intn(4)),
			SpeedKmh:   rng.Float64() * 30,
			UploadedAt: cur.Add(time.Duration(rng.Intn(90)) * time.Second),
		}
	}
	return fixes
}

// writeTruth streams fixes through a TruthSink as one batch.
func writeTruth(w io.Writer, fixes []trace.GroundTruth, flushEvery int) error {
	sink := NewTruthSink(w, flushEvery)
	if err := sink.Consume(Batch{Fixes: fixes}); err != nil {
		return err
	}
	return sink.Close()
}

// TestTruthRoundTrip checks write -> stream-read reproduces the input
// exactly, and that the trailer locates the frame index behind the
// last data frame.
func TestTruthRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		fixes := truthFixture(n, int64(n)+1)
		var buf bytes.Buffer
		if err := writeTruth(&buf, fixes, 64); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, err := ReadAllTruth(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: stream read: %v", n, err)
		}
		if len(got) != len(fixes) || (n > 0 && !reflect.DeepEqual(got, fixes)) {
			t.Fatalf("n=%d: stream round-trip diverged (%d fixes back)", n, len(got))
		}
		indexOffset, err := colfmt.ReadTrailer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), truthTrailerMagic)
		if err != nil {
			t.Fatalf("n=%d: trailer: %v", n, err)
		}
		if mark := binary.LittleEndian.Uint32(buf.Bytes()[indexOffset:]); mark != truthIndexMark {
			t.Fatalf("n=%d: trailer points at %#x, not the index sentinel", n, mark)
		}
	}
}

// TestTruthSinkWritesUnsorted checks the non-strict sink accepts a raw
// multi-world export log (frames not time-sorted across worlds) and
// TruthReader streams it back whole.
func TestTruthSinkWritesUnsorted(t *testing.T) {
	later := truthFixture(5, 1)
	earlier := truthFixture(5, 2) // same epoch: overlaps `later`
	var buf bytes.Buffer
	// flushEvery matches the world size, so each world lands in its own
	// frame and the overlap shows up as cross-frame disorder.
	sink := NewTruthSink(&buf, 5)
	if err := sink.Consume(Batch{Fixes: later}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Consume(Batch{Fixes: earlier}); err != nil {
		t.Fatalf("non-strict sink rejected a world boundary: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllTruth(bytes.NewReader(buf.Bytes()))
	if err != nil || !reflect.DeepEqual(got, append(later, earlier...)) {
		t.Fatalf("streaming an unsorted log: %d fixes, err %v", len(got), err)
	}
}

// TestTruthFileCorruption checks truncated and mangled truth logs are
// refused with errors, not panics or garbage.
func TestTruthFileCorruption(t *testing.T) {
	fixes := truthFixture(100, 5)
	var buf bytes.Buffer
	if err := writeTruth(&buf, fixes, 32); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", full[:5]},
		{"truncated mid-frame", full[:len(full)/2]},
		{"bad magic", append([]byte("NOTTRUTH"), full[8:]...)},
	} {
		if _, err := ReadAllTruth(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: ReadAllTruth accepted a corrupt log", tc.name)
		}
	}
}

// TestTruthSpillCounter checks the obs byte counter advances by exactly
// the file size written.
func TestTruthSpillCounter(t *testing.T) {
	c := obs.GetCounter("truth_spill_bytes_total")
	before := c.Value()
	var buf bytes.Buffer
	if err := writeTruth(&buf, truthFixture(200, 3), 64); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Value()-before, uint64(buf.Len()); got != want {
		t.Errorf("truth_spill_bytes_total advanced %d, file is %d bytes", got, want)
	}
}
