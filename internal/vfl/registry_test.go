package vfl

import (
	"os"
	"testing"

	"repro/internal/store"
)

// fakeOracle builds a bare oracle whose memo can be populated without
// training; registry mechanics don't need a real problem behind it.
func fakeOracle() *GainOracle {
	return NewGainOracle(nil, Config{})
}

func TestRegistrySharesOracles(t *testing.T) {
	r := NewRegistry(nil, "")
	built := 0
	build := func() *GainOracle { built++; return fakeOracle() }
	a, shared := r.Oracle("k1", build)
	if shared {
		t.Fatal("first registration reported shared")
	}
	b, shared := r.Oracle("k1", build)
	if !shared || a != b {
		t.Fatal("same key must share one oracle")
	}
	c, _ := r.Oracle("k2", build)
	if c == a {
		t.Fatal("distinct keys must not share")
	}
	if built != 2 {
		t.Fatalf("build ran %d times, want 2", built)
	}
}

func TestRegistrySpillAndPreload(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First process: train (simulated via import), flush.
	r1 := NewRegistry(st, "oracle/")
	o1, _ := r1.Oracle("titanic|forest|seed:1", fakeOracle)
	o1.ImportMemo(MemoSnapshot{
		Baseline:    0.61,
		HasBaseline: true,
		Gains:       map[string]float64{"0": 0.02, "0,1": 0.05, "1,2": 0.031},
	})
	if err := r1.Flush(); err != nil {
		t.Fatal(err)
	}

	// Second process (fresh registry over the same dir): warm from disk.
	st2, _ := store.Open(dir)
	r2 := NewRegistry(st2, "oracle/")
	o2, shared := r2.Oracle("titanic|forest|seed:1", fakeOracle)
	if shared {
		t.Fatal("fresh registry cannot share")
	}
	if got := o2.CacheSize(); got != 3 {
		t.Fatalf("preloaded cache has %d entries, want 3", got)
	}
	if r2.Restored() != 4 { // 3 gains + baseline
		t.Fatalf("Restored() = %d, want 4", r2.Restored())
	}
	if st := o2.Stats(); st.Restored != 4 || st.Trainings != 0 {
		t.Fatalf("oracle stats after preload: %+v", st)
	}
	if b := o2.Baseline(); b != 0.61 {
		t.Fatalf("baseline %v not preloaded", b)
	}
	if g := o2.Gain([]int{1, 0}); g != 0.05 {
		t.Fatalf("preloaded gain = %v, want 0.05 (and no training)", g)
	}
	if o2.Trainings() != 0 {
		t.Fatalf("warm oracle trained %d times", o2.Trainings())
	}

	// A different key loads nothing from that snapshot.
	r3 := NewRegistry(st2, "oracle/")
	o3, _ := r3.Oracle("credit|forest|seed:1", fakeOracle)
	if o3.CacheSize() != 0 {
		t.Fatal("foreign key preloaded another oracle's memo")
	}
}

func TestRegistryCorruptSnapshotLoadsCold(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	r1 := NewRegistry(st, "oracle/")
	o1, _ := r1.Oracle("k", fakeOracle)
	o1.ImportMemo(MemoSnapshot{Gains: map[string]float64{"5": 0.5}})
	if err := r1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt every snapshot in the dir by truncating it.
	names, _ := st.List("")
	if len(names) != 1 {
		t.Fatalf("want 1 snapshot, have %v", names)
	}
	path := st.Path(names[0])
	if err := truncateFile(path, 10); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(st, "oracle/")
	o2, _ := r2.Oracle("k", fakeOracle)
	if o2.CacheSize() != 0 || r2.Restored() != 0 {
		t.Fatal("corrupt snapshot must load cold")
	}
}

func TestImportMemoNeverOverwrites(t *testing.T) {
	o := fakeOracle()
	o.ImportMemo(MemoSnapshot{Gains: map[string]float64{"1": 0.9}})
	n := o.ImportMemo(MemoSnapshot{Baseline: 0.5, HasBaseline: true,
		Gains: map[string]float64{"1": 0.1, "2": 0.2}})
	if n != 2 { // baseline + "2"; "1" kept
		t.Fatalf("second import restored %d, want 2", n)
	}
	if g := o.Gain([]int{1}); g != 0.9 {
		t.Fatalf("existing entry overwritten: %v", g)
	}
}

func truncateFile(path string, n int64) error {
	return os.Truncate(path, n)
}

// Restored reports how many memo entries the registry's oracles adopted
// from disk — the valuations a restarted server answers without retraining.
func (r *Registry) Restored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}
