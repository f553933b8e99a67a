package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"impact/internal/cache"
	"impact/internal/memtrace"
)

// planRow is one planner case: organisations and the passes NewPlan
// must make, as the input positions each stack pass serves (in pass
// order), the positions the forest serves and the positions the
// broadcast replay serves.
type planRow struct {
	name    string
	cfgs    []cache.Config
	stacks  [][]int
	forest  []int
	replay  []int
	wantErr string // "" means the plan is built
}

// sizeSweep returns tmpl at each of sizes.
func sizeSweep(tmpl cache.Config, sizes ...int) []cache.Config {
	out := make([]cache.Config, len(sizes))
	for i, s := range sizes {
		out[i] = tmpl
		out[i].SizeBytes = s
	}
	return out
}

// checkPasses fails the test unless pl's passes serve exactly the
// row's stack groups, forest positions and replay positions, in the
// order stack passes, forest, replay, with at most one forest and one
// replay.
func checkPasses(t *testing.T, pl *Plan, tt planRow) {
	t.Helper()
	var stacks [][]int
	var forest, replay []int
	var kinds []string
	for _, p := range pl.Passes() {
		if p.Orgs() != len(p.at) {
			t.Errorf("Orgs = %d, serves %v", p.Orgs(), p.at)
		}
		if p.Stack() != (p.Kind() == "stack") {
			t.Errorf("Stack() = %v for a %s pass", p.Stack(), p.Kind())
		}
		kinds = append(kinds, p.Kind())
		switch p.Kind() {
		case "stack":
			stacks = append(stacks, p.at)
		case "forest":
			forest = append(forest, p.at...)
		case "replay":
			replay = append(replay, p.at...)
		default:
			t.Errorf("unknown pass kind %q", p.Kind())
		}
	}
	var wantKinds []string
	for range tt.stacks {
		wantKinds = append(wantKinds, "stack")
	}
	if len(tt.forest) > 0 {
		wantKinds = append(wantKinds, "forest")
	}
	if len(tt.replay) > 0 {
		wantKinds = append(wantKinds, "replay")
	}
	if !reflect.DeepEqual(stacks, tt.stacks) || !reflect.DeepEqual(forest, tt.forest) ||
		!reflect.DeepEqual(replay, tt.replay) || !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("passes %v: stack %v, forest %v, replay %v; want %v, %v, %v",
			kinds, stacks, forest, replay, tt.stacks, tt.forest, tt.replay)
	}
}

// checkStats fails the test unless got holds cache.Simulate's result
// for every one of cfgs on tr.
func checkStats(t *testing.T, label string, cfgs []cache.Config, got []cache.Stats, tr *memtrace.Trace) {
	t.Helper()
	if len(got) != len(cfgs) {
		t.Fatalf("%s: %d results for %d organisations", label, len(got), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := cache.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s %v: plan %+v, sequential %+v", label, cfg, got[i], want)
		}
	}
}

// runPlanRows builds each row's plan and checks its partition and its
// results on tr against cache.Simulate; an invalid organisation must
// be rejected with its Validate error.
func runPlanRows(t *testing.T, tr *memtrace.Trace, rows []planRow) {
	t.Helper()
	for _, tt := range rows {
		t.Run(tt.name, func(t *testing.T) {
			pl, err := NewPlan(tt.cfgs...)
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr || pl != nil {
					t.Fatalf("NewPlan = %v, %v; want nil and %q", pl, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkPasses(t, pl, tt)
			tr.Replay(pl)
			checkStats(t, "plan", tt.cfgs, pl.Stats(), tr)
		})
	}
}

// TestPlan pins the planner's partition of mixed organisations: which
// share a stack pass, that a lone cache of 8 ways or fewer replays
// while a wider one stacks, that the direct-mapped whole-block
// organisations no stack pass takes share the forest while a timed or
// prefetching one replays, and that an invalid organisation is
// rejected with its Validate error. Every result must equal
// cache.Simulate.
func TestPlan(t *testing.T) {
	runPlanRows(t, genTrace(13, 2500), []planRow{
		{name: "lone 8-way replays",
			cfgs:   []cache.Config{{SizeBytes: 2048, BlockBytes: 64, Assoc: 8}},
			replay: []int{0}},
		{name: "lone direct-mapped takes the forest",
			cfgs:   []cache.Config{{SizeBytes: 2048, BlockBytes: 64, Assoc: 1}},
			forest: []int{0}},
		{name: "one-block fully associative takes the forest",
			cfgs:   []cache.Config{{SizeBytes: 64, BlockBytes: 64, Assoc: 0}},
			forest: []int{0}},
		{name: "timed and prefetching direct-mapped replay beside the forest",
			cfgs: []cache.Config{
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, PrefetchNext: true},
				{SizeBytes: 1024, BlockBytes: 16, Assoc: 1},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &cache.TimingConfig{InitialLatency: 8}},
				{SizeBytes: 512, BlockBytes: 64, Assoc: 1, Replacement: cache.RandomRepl},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 16},
			},
			forest: []int{1, 3}, replay: []int{0, 2, 4}},
		{name: "lone fully associative 32-way stacks",
			cfgs:   []cache.Config{{SizeBytes: 2048, BlockBytes: 64, Assoc: 0}},
			stacks: [][]int{{0}}},
		{name: "two associativities of one geometry share a pass",
			cfgs: []cache.Config{
				{SizeBytes: 1024, BlockBytes: 64, Assoc: 1},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 4},
				{SizeBytes: 4096, BlockBytes: 64, Assoc: 8},
			},
			stacks: [][]int{{1, 2}}, forest: []int{0}},
		{name: "direct-mapped FIFO stacks with its LRU twin",
			cfgs: []cache.Config{
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Replacement: cache.FIFO},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
			},
			stacks: [][]int{{0, 1}}},
		{name: "mixed, with a duplicate and stack passes in first-use order",
			cfgs: []cache.Config{
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, Timing: &cache.TimingConfig{InitialLatency: 8}},
				{SizeBytes: 1024, BlockBytes: 32, Assoc: 0},
				{SizeBytes: 2048, BlockBytes: 64, Assoc: 1},
				{SizeBytes: 4096, BlockBytes: 64, Assoc: 16},
				{SizeBytes: 2048, BlockBytes: 32, Assoc: 0},
				{SizeBytes: 1024, BlockBytes: 32, Assoc: 0},
				{SizeBytes: 1024, BlockBytes: 32, Assoc: 2, Replacement: cache.FIFO},
			},
			stacks: [][]int{{1, 4, 5}, {3}}, forest: []int{2}, replay: []int{0, 6}},
		{name: "invalid associativity",
			cfgs:    []cache.Config{{SizeBytes: 2048, BlockBytes: 64, Assoc: 3}},
			wantErr: "cache: associativity 3 incompatible with 32 blocks"},
		{name: "invalid sector",
			cfgs:    []cache.Config{{SizeBytes: 2048, BlockBytes: 64, Assoc: 1, SectorBytes: 128}},
			wantErr: "cache: sector size 128 incompatible with block size 64"},
	})
}

// TestSweepSizes plans one template at several sizes, the shape icsim
// -sizes and impact simulate -sizes measure: a fully associative sweep
// shares one stack pass, a 16-way sweep stacks each size alone, a
// direct-mapped sweep shares the forest (but for a duplicated size,
// whose two organisations are a stack group), and every other sweep
// whose set count varies with size, or whose fill neither a stack pass
// nor the forest can model, replays. Every result must equal
// cache.Simulate; the empty sweep plans nothing and an invalid size is
// rejected.
func TestSweepSizes(t *testing.T) {
	sizes := []int{512, 1024, 2048, 4096, 8192}
	all := []int{0, 1, 2, 3, 4}
	runPlanRows(t, genTrace(13, 2500), []planRow{
		{name: "fully associative",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 0}, sizes...),
			stacks: [][]int{all}},
		{name: "direct-mapped",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 1}, sizes...),
			forest: all},
		{name: "direct-mapped duplicate stacks, the rest take the forest",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 16, Assoc: 1}, 4096, 512, 4096, 16),
			stacks: [][]int{{0, 2}}, forest: []int{1, 3}},
		{name: "direct-mapped prefetching",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 1, PrefetchNext: true}, sizes...),
			replay: all},
		{name: "2-way",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 32, Assoc: 2}, sizes...),
			replay: all},
		{name: "4-way FIFO",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 4, Replacement: cache.FIFO}, sizes...),
			replay: all},
		{name: "sectored",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 1, SectorBytes: 16}, sizes...),
			replay: all},
		{name: "partial load",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 1, PartialLoad: true}, sizes...),
			replay: all},
		{name: "16-way",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 16}, 1024, 2048, 4096, 8192),
			stacks: [][]int{{0}, {1}, {2}, {3}}},
		{name: "empty"},
		{name: "invalid size",
			cfgs:    sizeSweep(cache.Config{BlockBytes: 64}, 2048, 1000),
			wantErr: "cache: size 1000 is not a positive power of two"},
	})
}

// TestSizeStream streams size sweeps from a binary trace, as icsim
// does with a trace file: the stream is written, decoded once by a
// Reader and fed to one Plan, and every size must equal
// cache.Simulate on the materialized trace. A stackable sweep walks
// the stream in one stack pass; a direct-mapped one, whose set count
// varies with size, in the forest. An empty sweep fed the stream
// reports no results.
func TestSizeStream(t *testing.T) {
	tr := genTrace(41, 2500)
	var enc bytes.Buffer
	w := memtrace.NewWriter(&enc)
	tr.Replay(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sizes := []int{512, 1024, 2048, 4096, 8192}
	for _, tt := range []planRow{
		{name: "fully associative",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 0}, sizes...),
			stacks: [][]int{{0, 1, 2, 3, 4}}},
		{name: "direct-mapped",
			cfgs:   sizeSweep(cache.Config{BlockBytes: 64, Assoc: 1}, sizes...),
			forest: []int{0, 1, 2, 3, 4}},
		{name: "empty"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			pl, err := NewPlan(tt.cfgs...)
			if err != nil {
				t.Fatal(err)
			}
			checkPasses(t, pl, tt)
			rd, err := memtrace.NewReader(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.Replay(pl); err != nil {
				t.Fatal(err)
			}
			checkStats(t, "stream", tt.cfgs, pl.Stats(), tr)
		})
	}
}
