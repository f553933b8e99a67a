package cache

import (
	"strings"
	"testing"

	"impact/internal/memtrace"
	"impact/internal/obs"
	"impact/internal/xrand"
)

// forestTrace builds a reproducible trace with loop-like reuse over a
// 64 KB range, long runs crossing many blocks of every size, and a few
// runs near the 32-bit top, most of which saturate there
// (memtrace.Run.WordRange). No run starts at address 0, so a
// saturated run never merges with its successor.
func forestTrace(seed uint64, runs int) *memtrace.Trace {
	r := xrand.New(seed)
	tr := &memtrace.Trace{}
	hot := uint32(1+r.Intn(1<<10)) * 64
	for i := 0; i < runs; i++ {
		var addr uint32
		switch {
		case r.Bool(0.02):
			addr = 0xFFFFF000 + uint32(r.Intn(1024))*WordBytes
		case r.Bool(0.7):
			addr = hot + uint32(r.Intn(512))*WordBytes
		default:
			addr = uint32(1+r.Intn(1<<14)) * WordBytes
		}
		tr.Run(memtrace.Run{Addr: addr, Bytes: uint32(r.IntRange(1, 160)) * WordBytes})
	}
	return tr
}

// forestFamilies returns the direct-mapped families the forest test
// plans at one block size: every power of two from the block to 16 KB,
// a family in unsorted order with a duplicate size (once under FIFO,
// which a single-way set never consults), and a single size.
func forestFamilies(block int) [][]Config {
	var ladder []Config
	for size := block; size <= 16384; size *= 2 {
		ladder = append(ladder, Config{SizeBytes: size, BlockBytes: block, Assoc: 1})
	}
	dup := []Config{
		{SizeBytes: 4096, BlockBytes: block, Assoc: 1},
		{SizeBytes: block, BlockBytes: block, Assoc: 0},
		{SizeBytes: 4096, BlockBytes: block, Assoc: 1, Replacement: FIFO},
		{SizeBytes: 1024, BlockBytes: block, Assoc: 1},
	}
	single := []Config{{SizeBytes: 2048, BlockBytes: block, Assoc: 1}}
	return [][]Config{ladder, dup, single}
}

// forestStats feeds tr to a fresh forest over cfgs, whole or split
// into one-word runs that a Merger reassembles, and returns its
// statistics.
func forestStats(t *testing.T, cfgs []Config, tr *memtrace.Trace, fragmented bool) []Stats {
	t.Helper()
	f, err := NewForest(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if !fragmented {
		tr.Replay(f)
		return f.Stats()
	}
	m := memtrace.NewMerger(f)
	for _, r := range tr.Runs {
		w0, w1 := r.WordRange()
		for w := w0; w < w1; w++ {
			m.Run(memtrace.Run{Addr: w * WordBytes, Bytes: WordBytes})
		}
	}
	m.Flush()
	return f.Stats()
}

// TestForestMatchesSimulate is the forest's differential test: on
// random traces, every direct-mapped family at every block size from
// 4 to 256 B, planned alone and all together in one forest of seven
// trees, fed whole and word-fragmented through a Merger, must equal
// Simulate organisation by organisation.
func TestForestMatchesSimulate(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		tr := forestTrace(seed, 1500)
		var all []Config
		for block := 4; block <= 256; block *= 2 {
			for _, fam := range forestFamilies(block) {
				all = append(all, fam...)
			}
		}
		want := make([]Stats, len(all))
		for i, cfg := range all {
			st, err := Simulate(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = st
		}
		for _, fragmented := range []bool{false, true} {
			check := func(label string, cfgs []Config, want []Stats) {
				t.Helper()
				got := forestStats(t, cfgs, tr, fragmented)
				if len(got) != len(cfgs) {
					t.Fatalf("%s: %d results for %d organisations", label, len(got), len(cfgs))
				}
				for i, cfg := range cfgs {
					if got[i] != want[i] {
						t.Errorf("seed %d fragmented=%v %s %v: forest %+v, Simulate %+v",
							seed, fragmented, label, cfg, got[i], want[i])
					}
				}
			}
			check("all", all, want)
			at := 0
			for block := 4; block <= 256; block *= 2 {
				for _, fam := range forestFamilies(block) {
					check("family", fam, want[at:at+len(fam)])
					at += len(fam)
				}
			}
		}
	}
}

// TestForestSaturatesAtTop pins the forest to Simulate's convention
// for a run past the 32-bit top: its words stop there, and the
// direct-mapped levels see the top block's tag like any other.
func TestForestSaturatesAtTop(t *testing.T) {
	tr := &memtrace.Trace{Runs: []memtrace.Run{
		run(0xFFFFFFC0, 0x100), run(0x80, 0x40), run(0xFFFFFFF0, 0x10),
	}}
	cfgs := []Config{{SizeBytes: 64, BlockBytes: 64, Assoc: 1}, {SizeBytes: 128, BlockBytes: 64, Assoc: 1}}
	got := forestStats(t, cfgs, tr, false)
	for i, cfg := range cfgs {
		want, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%v: forest %+v, Simulate %+v", cfg, got[i], want)
		}
	}
	// 16 + 16 + 4 words. The one-set cache misses all three runs; the
	// two-set one keeps the top block (set 1) beside block 2 (set 0)
	// and hits it again.
	if got[0].Accesses != 36 || got[0].Misses != 3 || got[1].Misses != 2 {
		t.Errorf("forest = %+v, %+v; want 36 accesses, 3 and 2 misses", got[0], got[1])
	}
}

// TestNewForestRejects checks that an invalid organisation, or one the
// forest cannot model, rejects the whole forest.
func TestNewForestRejects(t *testing.T) {
	dm := Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}
	for _, tc := range []struct {
		name string
		bad  Config
		want string
	}{
		{"invalid", Config{SizeBytes: 1000, BlockBytes: 64, Assoc: 1}, "cache: size 1000 is not a positive power of two"},
		{"2-way", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 2}, "2048B/64B 2way"},
		{"fully associative", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 0}, "2048B/64B full"},
		{"sectored", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 16}, "sector=16"},
		{"partial", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PartialLoad: true}, "partial"},
		{"prefetch", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PrefetchNext: true}, "prefetch"},
		{"timed", Config{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &TimingConfig{}}, "2048B/64B dm"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewForest(dm, tc.bad)
			if err == nil || f != nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewForest = %v, %v; want nil and an error naming %q", f, err, tc.want)
			}
		})
	}
}

// TestForestRecordsOnce checks the forest's observability contract:
// its first Stats call folds every organisation, duplicates included,
// into the cache.* counters once, as the broadcast replay does, and
// later calls record nothing.
func TestForestRecordsOnce(t *testing.T) {
	prev := attached.Load()
	defer attached.Store(prev)
	reg := obs.NewRegistry()
	AttachObs(reg)

	tr := forestTrace(7, 300)
	cfgs := forestFamilies(32)[1]
	f, err := NewForest(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	tr.Replay(f)
	var misses uint64
	for _, st := range f.Stats() {
		misses += st.Misses
	}
	f.Stats()
	if got := reg.Counter("cache.simulations").Value(); got != uint64(len(cfgs)) {
		t.Errorf("cache.simulations = %d, want %d", got, len(cfgs))
	}
	if got := reg.Counter("cache.misses").Value(); got != misses {
		t.Errorf("cache.misses = %d, want %d", got, misses)
	}
}

// TestForestZeroAlloc pins the forest's steady state: Run allocates
// nothing.
func TestForestZeroAlloc(t *testing.T) {
	tr := forestTrace(9, 500)
	f, err := NewForest(forestFamilies(16)[0]...)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { tr.Replay(f) }); got != 0 {
		t.Errorf("Forest.Run allocates %.1f times per replay, want 0", got)
	}
}
