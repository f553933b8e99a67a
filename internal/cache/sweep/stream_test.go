package sweep

import (
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
)

// TestStreamPassMatchesBatch feeds the same trace to Run (batch) and
// to a stack pass run by run, including through a Merger fed raw,
// fragmented runs, and requires identical derived stats everywhere.
func TestStreamPassMatchesBatch(t *testing.T) {
	for _, geom := range []struct{ block, sets int }{
		{16, 1}, {64, 1}, {64, 8}, {32, 32},
	} {
		tr := genTrace(uint64(geom.block*100+geom.sets), 2500)
		want, err := Run(tr, geom.block, geom.sets)
		if err != nil {
			t.Fatal(err)
		}

		// Direct streaming of canonical runs.
		s, err := NewStackPass(geom.block, geom.sets)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Runs {
			s.Run(r)
		}
		comparePass(t, "stream", s, want)

		// Streaming through a Merger fed deliberately fragmented runs:
		// split every canonical run into word-sized pieces. The Merger
		// must reassemble the canonical sequence.
		s2, err := NewStackPass(geom.block, geom.sets)
		if err != nil {
			t.Fatal(err)
		}
		m := memtrace.NewMerger(s2)
		for _, r := range tr.Runs {
			for off := uint32(0); off < r.Bytes; off += memtrace.WordBytes {
				m.Run(memtrace.Run{Addr: r.Addr + off, Bytes: memtrace.WordBytes})
			}
		}
		m.Flush()
		comparePass(t, "merger-stream", s2, want)
	}
}

// comparePass checks two passes derive identical stats across a
// spread of associativities.
func comparePass(t *testing.T, label string, got, want *StackPass) {
	t.Helper()
	if got.Accesses() != want.Accesses() {
		t.Errorf("%s: accesses %d, want %d", label, got.Accesses(), want.Accesses())
	}
	block := int(want.blockWords) * memtrace.WordBytes
	for assoc := 1; assoc <= 64; assoc *= 2 {
		cfg := cache.Config{
			SizeBytes:   int(want.sets) * assoc * block,
			BlockBytes:  block,
			Assoc:       assoc,
			Replacement: cache.LRU,
		}
		if cfg.Validate() != nil || !want.covers(cfg) {
			continue
		}
		w, err := want.Stats(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Stats(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g != w {
			t.Errorf("%s %v: stream %+v, batch %+v", label, cfg, g, w)
		}
	}
}

// TestStreamPassZeroAlloc pins the zero-alloc steady state of the
// stack-update inner loop: once the working set has been touched (all
// stacks at capacity, histogram sized), replaying the same trace
// allocates nothing.
func TestStreamPassZeroAlloc(t *testing.T) {
	tr := genTrace(43, 2000)
	s, err := NewStackPass(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(s) // warm: grows stacks and histogram
	avg := testing.AllocsPerRun(10, func() {
		tr.Replay(s)
	})
	if avg != 0 {
		t.Errorf("steady-state StackPass.Run allocates %.1f times per replay, want 0", avg)
	}
}
