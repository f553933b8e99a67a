package cache

import (
	"testing"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

func mustHierarchy(t *testing.T, l1, l2 Config) *Hierarchy {
	t.Helper()
	h, err := newHierarchy(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	l1 := Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1}
	bad := []Config{
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 2, SectorBytes: 8},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 2, PartialLoad: true},
		{SizeBytes: 8192, BlockBytes: 64, Assoc: 2, PrefetchNext: true},
		{SizeBytes: 8192, BlockBytes: 32, Assoc: 2}, // block smaller than L1's
		{SizeBytes: 8191, BlockBytes: 64, Assoc: 2}, // invalid size
	}
	for _, l2 := range bad {
		if _, err := newHierarchy(l1, l2); err == nil {
			t.Errorf("L2 config %+v accepted", l2)
		}
	}
	if _, err := newHierarchy(Config{SizeBytes: 7}, Config{SizeBytes: 8192, BlockBytes: 64}); err == nil {
		t.Error("invalid L1 accepted")
	}
}

func TestHierarchyBasicFlow(t *testing.T) {
	h := mustHierarchy(t,
		Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 2})
	h.Run(memtrace.Run{Addr: 0, Bytes: 64})
	s1, s2 := h.L1.Stats(), h.L2.Stats()
	// One L1 miss -> one 64B fill -> 16 word accesses at L2 -> one L2
	// miss.
	if s1.Misses != 1 {
		t.Fatalf("L1 misses = %d", s1.Misses)
	}
	if s2.Accesses != 16 || s2.Misses != 1 {
		t.Fatalf("L2 stats %+v", s2)
	}
	// Re-touching after L1 eviction hits in L2.
	h.Run(memtrace.Run{Addr: 1024, Bytes: 4}) // evicts L1 set 0
	h.Run(memtrace.Run{Addr: 0, Bytes: 4})    // L1 miss, L2 hit
	s2 = h.L2.Stats()
	if s2.Misses != 2 {
		t.Fatalf("L2 misses = %d, want 2 (block 0 still resident)", s2.Misses)
	}
}

func TestHierarchyL2FiltersTraffic(t *testing.T) {
	// A working set larger than L1 but within L2: after warmup, L1
	// misses keep flowing but L2 misses stay at the compulsory count.
	r := xrand.New(5)
	var tr memtrace.Trace
	for i := 0; i < 5000; i++ {
		tr.Run(memtrace.Run{Addr: uint32(r.Intn(64)) * 64, Bytes: 64}) // 4KB set
	}
	s1, s2, err := SimulateHierarchy(
		Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 2},
		&tr)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Misses < 1000 {
		t.Fatalf("expected heavy L1 missing, got %d", s1.Misses)
	}
	if s2.Misses != 64 {
		t.Fatalf("L2 misses = %d, want 64 compulsory", s2.Misses)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := mustHierarchy(t,
		Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
		Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 2})
	h.Run(memtrace.Run{Addr: 0, Bytes: 64})
	h.Reset()
	if h.L1.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Fatal("reset did not clear stats")
	}
	h.Run(memtrace.Run{Addr: 0, Bytes: 4})
	if h.L2.Stats().Misses != 1 {
		t.Fatal("reset did not clear contents")
	}
}

func TestHierarchyWithL1Prefetch(t *testing.T) {
	// L1 prefetches flow into L2 too: every word L1 pulls must be
	// accounted as L2 accesses.
	h := mustHierarchy(t,
		Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PrefetchNext: true},
		Config{SizeBytes: 8192, BlockBytes: 128, Assoc: 2})
	h.Run(memtrace.Run{Addr: 0, Bytes: 4})
	s1, s2 := h.L1.Stats(), h.L2.Stats()
	if s1.MemWords != 32 {
		t.Fatalf("L1 pulled %d words, want 32", s1.MemWords)
	}
	if s2.Accesses != 32 {
		t.Fatalf("L2 saw %d accesses, want 32 (demand + prefetch)", s2.Accesses)
	}
	// Both L1 transfers fall in one 128B L2 block: one L2 miss.
	if s2.Misses != 1 {
		t.Fatalf("L2 misses = %d, want 1", s2.Misses)
	}
}

func TestHierarchyPartialL1(t *testing.T) {
	// Partial-loading L1: only the fetched tail reaches L2.
	h := mustHierarchy(t,
		Config{SizeBytes: 1024, BlockBytes: 64, Assoc: 1, PartialLoad: true},
		Config{SizeBytes: 8192, BlockBytes: 64, Assoc: 2})
	h.Run(memtrace.Run{Addr: 16, Bytes: 4}) // fetches words 4..15
	if got := h.L2.Stats().Accesses; got != 12 {
		t.Fatalf("L2 saw %d accesses, want 12", got)
	}
}
