// Command tagcrawl demonstrates the paper's data-collection pipeline in
// isolation: it stands up a simulated vendor cloud, plants both tags in a
// busy spot, runs the one-minute companion-app crawlers against the cloud,
// and streams the crawl log — the <timestamp, location, last-seen> triples
// the paper's FindMy/SmartThings crawlers produced.
//
// Usage:
//
//	tagcrawl [-minutes N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tagsim"
	"tagsim/internal/cloud"
	"tagsim/internal/crawler"
	"tagsim/internal/device"
	"tagsim/internal/encounter"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

func main() {
	log.SetFlags(0)
	minutes := flag.Int("minutes", 90, "how long to crawl")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	start := time.Date(2022, 3, 7, 12, 0, 0, 0, time.UTC)
	e := sim.NewEngine(start, *seed)
	spot := geo.LatLon{Lat: 24.5246, Lon: 54.4349}

	// A small crowd around the tags.
	var devices []*device.Device
	for i := 0; i < 30; i++ {
		p := geo.Destination(spot, float64(i*12), 5+float64(i%4)*10)
		d := device.New(fmt.Sprintf("iphone-%02d", i), trace.VendorApple, p, mobility.Stationary(p))
		devices = append(devices, d)
	}
	for i := 0; i < 6; i++ {
		p := geo.Destination(spot, float64(i*60), 8+float64(i)*6)
		d := device.New(fmt.Sprintf("galaxy-%02d", i), trace.VendorSamsung, p, mobility.Stationary(p))
		d.OptedIn = true
		devices = append(devices, d)
	}

	airTag := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(spot))
	smartTag := tag.New("smarttag-1", tag.SmartTagProfile(), mobility.Stationary(spot))
	apple := cloud.NewService(tagsim.VendorApple)
	samsung := cloud.NewService(tagsim.VendorSamsung)
	apple.Register(airTag.ID)
	samsung.Register(smartTag.ID)

	plane := encounter.New(encounter.Config{}, e, device.NewFleet(spot, devices),
		[]*tag.Tag{airTag, smartTag},
		map[trace.Vendor]*cloud.Service{tagsim.VendorApple: apple, tagsim.VendorSamsung: samsung})
	plane.Attach(start)

	findMy := crawler.New(crawler.DefaultConfig(tagsim.VendorApple), apple, []string{airTag.ID}, e.RNG("findmy"))
	smartThings := crawler.New(crawler.DefaultConfig(tagsim.VendorSamsung), samsung, []string{smartTag.ID}, e.RNG("smartthings"))
	var findMyLog, smartThingsLog []trace.CrawlRecord
	findMy.Tap = func(rec trace.CrawlRecord) { findMyLog = append(findMyLog, rec) }
	smartThings.Tap = func(rec trace.CrawlRecord) { smartThingsLog = append(smartThingsLog, rec) }
	findMy.Attach(e, start)
	smartThings.Attach(e, start)

	e.RunFor(time.Duration(*minutes) * time.Minute)

	fmt.Println("crawl_t,app,tag,lat,lon,age_minutes")
	for _, rec := range append(findMyLog, smartThingsLog...) {
		app := "FindMy"
		if rec.Vendor == tagsim.VendorSamsung {
			app = "SmartThings"
		}
		fmt.Printf("%s,%s,%s,%.6f,%.6f,%d\n",
			rec.CrawlT.Format(time.RFC3339), app, rec.TagID, rec.Pos.Lat, rec.Pos.Lon, rec.AgeMinutes)
	}
	aAcc, aRej := apple.Stats()
	sAcc, sRej := samsung.Stats()
	log.Printf("FindMy: %d crawls, cloud accepted %d / rate-limited %d", len(findMyLog), aAcc, aRej)
	log.Printf("SmartThings: %d crawls, cloud accepted %d / rate-limited %d", len(smartThingsLog), sAcc, sRej)
}
