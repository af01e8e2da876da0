package vflmarket

import (
	"math"
	"testing"
)

// TestMLPMarketGainsGolden pins the loadgen benchmark's market — the
// titanic catalog priced by real split-MLP courses at seed 1 — to the
// exact bits of every bundle gain, captured before the training kernels
// were register-blocked. Any change to the order of a rounded operation in
// training moves at least one of these bits.
func TestMLPMarketGainsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real VFL training in -short mode")
	}
	e, err := NewEngine("titanic", WithModel("mlp"), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	golden := []uint64{
		0x3fbab9ab9ab9ab96, 0x3fb951951951951f, 0x3fb7e97e97e97e9d, 0x3fb7e97e97e97e9d,
		0x3fb5195195195198, 0x3fb3b13b13b13b15, 0x3fb2492492492493, 0x3fa9519519519513,
		0x3fa3b13b13b13b0a, 0x3fa0e10e10e10e1c, 0x3f9c21c21c21c22f, 0x3f90e10e10e10e1c,
		0x3f90e10e10e10e1c,
	}
	cat := e.Catalog()
	got := make([]uint64, cat.Len())
	for id := range got {
		got[id] = math.Float64bits(cat.Gain(id))
	}
	if len(got) != len(golden) {
		t.Fatalf("catalog has %d bundles %#x, want %d", len(got), got, len(golden))
	}
	for id, want := range golden {
		if got[id] != want {
			t.Errorf("gain[%d] bits = %#x (%v), want %#x", id, got[id], cat.Gain(id), want)
		}
	}
	if trainings, _ := e.OracleStats(); trainings != 16 {
		t.Errorf("trainings = %d, want 16", trainings)
	}
}
