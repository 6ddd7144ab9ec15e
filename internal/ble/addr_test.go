package ble

import (
	"math/rand"
	"testing"
)

func TestAdvAddressString(t *testing.T) {
	a := AdvAddress{0xC0, 0x01, 0x02, 0x03, 0x04, 0x05}
	if got := a.String(); got != "C0:01:02:03:04:05" {
		t.Errorf("String = %q", got)
	}
}

// TestRandomStaticProperty checks IsRandomStatic against the address
// type's definition: the two most significant bits of the first byte
// are both set.
func TestRandomStaticProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	static := 0
	for i := 0; i < 1000; i++ {
		var a AdvAddress
		rng.Read(a[:])
		want := a[0]>>6 == 3
		if a.IsRandomStatic() != want {
			t.Fatalf("IsRandomStatic(%v) = %v, want %v", a, !want, want)
		}
		if want {
			static++
		}
	}
	if static == 0 || static == 1000 {
		t.Errorf("%d of 1000 random addresses are random static; both kinds must be drawn", static)
	}
}
