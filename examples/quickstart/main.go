// Quickstart: receive tag beacons in a one-minute run, check the radio
// calibration against the paper's Figure 2, and query the battery model —
// no long simulation required.
package main

import (
	"fmt"
	"log"
	"time"

	"tagsim"
)

func main() {
	fmt.Println(tagsim.String())
	fmt.Println()

	// 1. Every tag advertises BLE beacons at its profile's cadence and
	// power. The simulator models beacons statistically, as received
	// signal strengths, rather than as frames.
	profile := tagsim.AirTagProfile()
	fmt.Printf("AirTag advertises every %v at %+.0f dBm\n", profile.AdvInterval, profile.TxPowerDBm)

	// The secluded-area experiment records every beacon a phone hears.
	rssi := tagsim.SecludedRSSI(tagsim.SecludedConfig{Seed: 42, Duration: time.Minute})
	if len(rssi) == 0 {
		log.Fatal("no beacons received")
	}
	fmt.Printf("received %d beacons in a one-minute secluded-area run\n", len(rssi))
	fmt.Printf("first beacon: %s at %.1f dBm from %.0f m\n\n",
		rssi[0].TagID, rssi[0].RSSI, rssi[0].DistanceM)

	// 2. The radio model is calibrated to the paper's Figure 2: SmartTag
	// beacons are ~10 dB hotter up close, comparable at 20 m.
	fig2 := tagsim.Figure2(42)
	fmt.Print(fig2.Render())
	gap0 := fig2.Median(tagsim.VendorSamsung, 0) - fig2.Median(tagsim.VendorApple, 0)
	gap20 := fig2.Median(tagsim.VendorSamsung, 20) - fig2.Median(tagsim.VendorApple, 20)
	fmt.Printf("SmartTag-AirTag median gap: %+.1f dB at contact, %+.1f dB at 20 m\n\n", gap0, gap20)

	// 3. The battery model behind the paper's "20% more battery, both
	// last about a year" observation.
	fmt.Print(tagsim.Battery().Render())
}
