package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// WriteJSONL writes records to w, one JSON object per line.
func WriteJSONL[T any](w io.Writer, records []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads newline-delimited JSON records from r until EOF.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("trace: decode record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// Timestamped is implemented by every record type that carries a primary
// timestamp, enabling generic sorting and merging.
type Timestamped interface {
	Timestamp() time.Time
}

// Timestamp implements Timestamped for GroundTruth.
func (g GroundTruth) Timestamp() time.Time { return g.T }

// Timestamp implements Timestamped for Report.
func (r Report) Timestamp() time.Time { return r.T }

// Timestamp implements Timestamped for CrawlRecord.
func (c CrawlRecord) Timestamp() time.Time { return c.CrawlT }

// Timestamp implements Timestamped for DeviceCount.
func (d DeviceCount) Timestamp() time.Time { return d.T }

// Timestamp implements Timestamped for BeaconRx.
func (b BeaconRx) Timestamp() time.Time { return b.T }

// SortByTime sorts records in place by their primary timestamp (stable, so
// same-instant records keep their relative order).
func SortByTime[T Timestamped](records []T) {
	sort.SliceStable(records, func(i, j int) bool {
		return records[i].Timestamp().Before(records[j].Timestamp())
	})
}

// Merge merges two time-sorted slices into one time-sorted slice.
func Merge[T Timestamped](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Timestamp().After(b[j].Timestamp()) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Filter returns the records for which keep returns true.
func Filter[T any](records []T, keep func(T) bool) []T {
	var out []T
	for _, r := range records {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// csv column layouts, one writer/reader pair per record type that the
// paper's release published as CSV.

// WriteGroundTruthCSV writes ground-truth fixes in CSV form with a header.
func WriteGroundTruthCSV(w io.Writer, records []GroundTruth) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "lat", "lon", "vantage_id", "speed_kmh", "uploaded_at"}); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			r.T.UTC().Format(time.RFC3339),
			strconv.FormatFloat(r.Pos.Lat, 'f', 7, 64),
			strconv.FormatFloat(r.Pos.Lon, 'f', 7, 64),
			r.VantageID,
			strconv.FormatFloat(r.SpeedKmh, 'f', 2, 64),
			r.UploadedAt.UTC().Format(time.RFC3339),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadGroundTruthCSV reads the format written by WriteGroundTruthCSV.
func ReadGroundTruthCSV(r io.Reader) ([]GroundTruth, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]GroundTruth, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 6 {
			return nil, fmt.Errorf("trace: row %d has %d columns, want 6", i+1, len(row))
		}
		t, err := time.Parse(time.RFC3339, row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		lat, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d lat: %w", i+1, err)
		}
		lon, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d lon: %w", i+1, err)
		}
		speed, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d speed: %w", i+1, err)
		}
		up, err := time.Parse(time.RFC3339, row[5])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d uploaded_at: %w", i+1, err)
		}
		gt := GroundTruth{T: t, VantageID: row[3], SpeedKmh: speed, UploadedAt: up}
		gt.Pos.Lat, gt.Pos.Lon = lat, lon
		out = append(out, gt)
	}
	return out, nil
}

// WriteCrawlCSV writes crawl records as CSV with a header.
func WriteCrawlCSV(w io.Writer, records []CrawlRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"crawl_t", "tag_id", "vendor", "lat", "lon", "reported_at", "age_minutes"}); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			r.CrawlT.UTC().Format(time.RFC3339),
			r.TagID,
			r.Vendor.String(),
			strconv.FormatFloat(r.Pos.Lat, 'f', 7, 64),
			strconv.FormatFloat(r.Pos.Lon, 'f', 7, 64),
			r.ReportedAt.UTC().Format(time.RFC3339),
			strconv.Itoa(r.AgeMinutes),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCrawlCSV reads the format written by WriteCrawlCSV.
func ReadCrawlCSV(r io.Reader) ([]CrawlRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]CrawlRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 7 {
			return nil, fmt.Errorf("trace: row %d has %d columns, want 7", i+1, len(row))
		}
		ct, err := time.Parse(time.RFC3339, row[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d crawl_t: %w", i+1, err)
		}
		vendor, err := ParseVendor(row[2])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		lat, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d lat: %w", i+1, err)
		}
		lon, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d lon: %w", i+1, err)
		}
		rt, err := time.Parse(time.RFC3339, row[5])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d reported_at: %w", i+1, err)
		}
		age, err := strconv.Atoi(row[6])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d age: %w", i+1, err)
		}
		rec := CrawlRecord{CrawlT: ct, TagID: row[1], Vendor: vendor, ReportedAt: rt, AgeMinutes: age}
		rec.Pos.Lat, rec.Pos.Lon = lat, lon
		out = append(out, rec)
	}
	return out, nil
}
