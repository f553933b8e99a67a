package paging

import (
	"strings"
	"testing"
	"testing/quick"

	"impact/internal/memtrace"
	"impact/internal/xrand"
)

func run(addr, bytes uint32) memtrace.Run { return memtrace.Run{Addr: addr, Bytes: bytes} }

// TestValidate has one row per Config.Validate error branch, each
// checked through Validate, NewSimulator and Simulate, plus valid rows.
func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // "" means valid
	}{
		{"zero page size", Config{PageBytes: 0}, "page size 0 is not a power of two >= 64"},
		{"negative page size", Config{PageBytes: -64}, "page size -64 is not a power of two >= 64"},
		{"page size not a power of two", Config{PageBytes: 100}, "page size 100 is not a power of two >= 64"},
		{"page size below 64", Config{PageBytes: 32}, "page size 32 is not a power of two >= 64"},
		{"negative frames", Config{PageBytes: 4096, Frames: -1}, "negative frame count -1"},
		{"4KB pages, 8 frames", Config{PageBytes: 4096, Frames: 8}, ""},
		{"smallest page, unbounded", Config{PageBytes: 64}, ""},
		{"1MB page, one frame", Config{PageBytes: 1 << 20, Frames: 1}, ""},
	}
	tr := &memtrace.Trace{Runs: []memtrace.Run{run(0, 64)}, Instrs: 16}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			verr := tt.cfg.Validate()
			sim, nerr := NewSimulator(tt.cfg)
			_, serr := Simulate(tt.cfg, tr)
			if tt.wantErr == "" {
				if verr != nil || nerr != nil || sim == nil || serr != nil {
					t.Fatalf("Validate = %v, NewSimulator = %v, %v, Simulate = %v; want success", verr, sim, nerr, serr)
				}
				return
			}
			if verr == nil || !strings.Contains(verr.Error(), tt.wantErr) {
				t.Errorf("Validate = %v, want an error containing %q", verr, tt.wantErr)
			}
			if nerr == nil || nerr.Error() != verr.Error() || sim != nil {
				t.Errorf("NewSimulator = %v, %v; want nil and the Validate error", sim, nerr)
			}
			if serr == nil || serr.Error() != verr.Error() {
				t.Errorf("Simulate = %v; want the Validate error", serr)
			}
		})
	}
}

func TestColdFaultsOnly(t *testing.T) {
	var tr memtrace.Trace
	tr.Run(run(0, 4096))    // page 0
	tr.Run(run(8192, 4096)) // page 2
	tr.Run(run(0, 4096))    // page 0 again: resident
	st, err := Simulate(Config{PageBytes: 4096}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 2 || st.PagesTouched != 2 {
		t.Fatalf("stats %+v, want 2 faults / 2 pages", st)
	}
	if st.Accesses != tr.Instrs {
		t.Fatalf("accesses %d != instrs %d", st.Accesses, tr.Instrs)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 frames; touch pages 0, 1, 2 (evicts 0), then 0 again: fault.
	var tr memtrace.Trace
	tr.Run(run(0, 4))
	tr.Run(run(4096, 4))
	tr.Run(run(8192, 4))
	tr.Run(run(0, 4))
	st, err := Simulate(Config{PageBytes: 4096, Frames: 2}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 4 {
		t.Fatalf("faults = %d, want 4", st.Faults)
	}
}

func TestRunSpanningPages(t *testing.T) {
	var tr memtrace.Trace
	tr.Run(run(4000, 8192)) // spans pages 0, 1, 2 (4KB pages)
	st, err := Simulate(Config{PageBytes: 4096}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesTouched != 3 || st.Faults != 3 {
		t.Fatalf("stats %+v, want 3 pages", st)
	}
}

func TestInclusionPropertyFrames(t *testing.T) {
	// More frames never fault more (LRU stack property at page level).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var tr memtrace.Trace
		for i := 0; i < 300; i++ {
			tr.Run(run(uint32(r.Intn(64))*1024, uint32(r.IntRange(1, 64))*4))
		}
		var prev uint64
		for _, frames := range []int{64, 16, 8, 4, 2} {
			st, err := Simulate(Config{PageBytes: 4096, Frames: frames}, &tr)
			if err != nil {
				return false
			}
			if st.Faults < prev {
				return false
			}
			prev = st.Faults
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetTightLoop(t *testing.T) {
	// A loop within one page: working set is exactly 1 page.
	var tr memtrace.Trace
	for i := 0; i < 1000; i++ {
		tr.Run(run(128, 256))
	}
	ws, err := WorkingSet(&tr, 4096, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1 {
		t.Fatalf("working set = %v, want 1", ws)
	}
}

func TestWorkingSetSpread(t *testing.T) {
	// Alternating between two far-apart pages: working set 2.
	var tr memtrace.Trace
	for i := 0; i < 500; i++ {
		tr.Run(run(0, 64))
		tr.Run(run(1<<20, 64))
	}
	ws, err := WorkingSet(&tr, 4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ws < 1.9 || ws > 2.1 {
		t.Fatalf("working set = %v, want ~2", ws)
	}
}

func TestWorkingSetShortTrace(t *testing.T) {
	// A trace shorter than one window still has a working set: the
	// partial window counts (16 fetches on one page -> 1 page).
	var tr memtrace.Trace
	tr.Run(run(0, 64))
	ws, err := WorkingSet(&tr, 4096, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1 {
		t.Fatalf("working set of sub-window trace = %v, want 1", ws)
	}
	if ws, err = WorkingSet(&memtrace.Trace{}, 4096, 1000); err != nil || ws != 0 {
		t.Fatalf("working set of empty trace = %v, %v, want 0", ws, err)
	}
}

func TestWorkingSetPartialFinalWindow(t *testing.T) {
	// 1000 fetches on page 0, then 500 more spread over pages 1 and 2:
	// the partial tail is excluded once a full window exists, so the
	// average is the full window's 1 page.
	var tr memtrace.Trace
	tr.Run(run(0, 4000))
	tr.Run(run(4096, 1000))
	tr.Run(run(8192, 1000))
	ws, err := WorkingSet(&tr, 4096, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1 {
		t.Fatalf("working set = %v, want 1 (partial tail excluded)", ws)
	}
	// The same tail alone IS the trace: the footprint (2 pages) counts.
	var tail memtrace.Trace
	tail.Run(run(4096, 1000))
	tail.Run(run(8192, 1000))
	if ws, err = WorkingSet(&tail, 4096, 1000); err != nil || ws != 2 {
		t.Fatalf("working set of sub-window trace = %v, %v, want 2", ws, err)
	}
}

func TestUnboundedFrames(t *testing.T) {
	// Frames 0: nothing is ever evicted, so every fault is cold and
	// Faults == PagesTouched no matter how the trace revisits pages.
	var tr memtrace.Trace
	for i := 0; i < 50; i++ {
		tr.Run(run(uint32(i%7)*4096, 4096))
	}
	st, err := Simulate(Config{PageBytes: 4096, Frames: 0}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != uint64(st.PagesTouched) || st.PagesTouched != 7 {
		t.Fatalf("stats %+v, want 7 cold faults only", st)
	}
}

func TestRunAtAddressTop(t *testing.T) {
	// A run overflowing the 32-bit address space saturates instead of
	// wrapping: the touch of its last page must not be dropped.
	var tr memtrace.Trace
	tr.Run(run(0xFFFFF000, 0x2000))
	st, err := Simulate(Config{PageBytes: 4096}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 1 || st.PagesTouched != 1 {
		t.Fatalf("stats %+v, want the saturated top page touched once", st)
	}
}

func TestSimulatorStreaming(t *testing.T) {
	// The streaming sink fed run by run matches the batch Simulate.
	r := xrand.New(7)
	var tr memtrace.Trace
	for i := 0; i < 500; i++ {
		tr.Run(run(uint32(r.Intn(64))*1024, uint32(r.IntRange(1, 64))*4))
	}
	cfg := Config{PageBytes: 1024, Frames: 4}
	want, err := Simulate(cfg, &tr)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rn := range tr.Runs {
		sim.Run(rn)
	}
	if got := sim.Stats(); got != want {
		t.Fatalf("streaming stats %+v != batch %+v", got, want)
	}
}

func TestWorkingSetValidation(t *testing.T) {
	var tr memtrace.Trace
	if _, err := WorkingSet(&tr, 100, 10); err == nil {
		t.Fatal("bad page size accepted")
	}
	if _, err := WorkingSet(&tr, 4096, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestFaultRate(t *testing.T) {
	s := Stats{Accesses: 2_000_000, Faults: 4}
	if got := s.FaultRate(); got != 2 {
		t.Fatalf("FaultRate = %v, want 2 per M", got)
	}
	if (Stats{}).FaultRate() != 0 {
		t.Fatal("zero stats fault rate != 0")
	}
}
