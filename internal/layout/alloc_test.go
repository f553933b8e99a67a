package layout

import (
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/memtrace"
)

// endless builds a loop that practically never exits, with a call and
// a forward branch in its body, so a run's length is set by MaxSteps.
func endless(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 4)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	body := main.NewBlock()
	side := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(body, 3)
	main.Call(body, leaf.ID())
	main.Branch(body, ir.Arc{To: body, Prob: 0.7}, ir.Arc{To: side, Prob: 0.3})
	main.Fill(side, 2)
	main.Branch(side, ir.Arc{To: body, Prob: 0.999999}, ir.Arc{To: exit, Prob: 0.000001})
	main.Fill(exit, 1)
	main.Ret(exit)
	pb.SetEntry(main.ID())
	return pb.Build()
}

// TestTraceAllocsConstant pins the tracing path's allocation model:
// Stream and Trace allocate a fixed number of times per run — the
// compiled engine, the run's probability slice, Trace's buffer and
// sealed trace; the engine's merger stays on the stack — and nothing
// per executed block or fetch run, so a run twice as long allocates no
// more. Trace's traces stay within one
// memtrace.Buffer chunk (4096 runs), the only storage that grows with
// a materialized trace.
func TestTraceAllocsConstant(t *testing.T) {
	lay := Natural(endless(t))
	cases := []struct {
		name        string
		short, long uint64 // MaxSteps of the two runs
		run         func(cfg interp.Config) (interp.Result, int, error)
	}{
		{"stream", 20_000, 40_000, func(cfg interp.Config) (interp.Result, int, error) {
			var rc memtrace.RunCount
			res, err := Stream(lay, 5, cfg, &rc)
			return res, rc.Runs, err
		}},
		{"trace", 2_000, 4_000, func(cfg interp.Config) (interp.Result, int, error) {
			tr, res, err := Trace(lay, 5, cfg)
			if err != nil {
				return res, 0, err
			}
			if len(tr.Runs) >= 4096 {
				t.Fatalf("trace of %d runs spans more than one buffer chunk", len(tr.Runs))
			}
			return res, len(tr.Runs), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(steps uint64) float64 {
				cfg := interp.Config{MaxSteps: steps}
				return testing.AllocsPerRun(20, func() {
					res, runs, err := tc.run(cfg)
					if err != nil || res.Completed || runs == 0 {
						t.Fatalf("run %+v (%d runs), %v: want a capped run", res, runs, err)
					}
				})
			}
			short, long := allocs(tc.short), allocs(tc.long)
			if long > short {
				t.Errorf("allocations grow with run length: %v (%d instrs) -> %v (%d instrs)", short, tc.short, long, tc.long)
			}
		})
	}
}
