// Package ble models the Bluetooth Low Energy plane the location tags
// live on: the advertiser addresses their beacons carry and a calibrated
// radio propagation and reception model. Beacons are modelled
// statistically; no advertising frame is ever built or decoded.
package ble

import "fmt"

// AdvAddress is a BLE advertiser address. It is comparable, so it can be
// used directly as a map key when grouping beacons by advertiser — which
// is exactly what third-party scanners do, and what MAC randomization
// defeats.
type AdvAddress [6]byte

// String formats the address in the usual colon-separated form.
func (a AdvAddress) String() string {
	return fmt.Sprintf("%02X:%02X:%02X:%02X:%02X:%02X", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IsRandomStatic reports whether the two most significant bits are 11,
// marking a BLE random static address (what both tags use).
func (a AdvAddress) IsRandomStatic() bool { return a[0]&0xC0 == 0xC0 }
