package interp

import (
	"testing"

	"impact/internal/ir"
	"impact/internal/memtrace"
)

// loopCallProgram builds a practically endless loop whose body calls a
// leaf, so a run's length is set by MaxSteps alone.
func loopCallProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 3)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	head := main.NewBlock()
	body := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(head, 2)
	main.FallThrough(head, body)
	main.Fill(body, 2)
	main.Call(body, leaf.ID())
	main.Fill(body, 1)
	main.Branch(body, ir.Arc{To: body, Prob: 0.999999}, ir.Arc{To: exit, Prob: 0.000001})
	main.Fill(exit, 1)
	main.Ret(exit)
	pb.SetEntry(main.ID())
	return pb.Build()
}

// TestRunAllocsConstant pins the run loop's allocation model: a run
// allocates a fixed number of times — its cumulative-probability slice
// (the call stack, to depth 64, and a traced run's merger stay on the
// goroutine's stack) — and nothing per executed block, call or
// segment. A run twice as long allocates no more, whether it counts or
// traces.
func TestRunAllocsConstant(t *testing.T) {
	p := loopCallProgram(t)
	e := NewEngine(p)
	c := e.NewCounts()
	addrs := naturalAddrs(p)
	var rc memtrace.RunCount
	modes := []struct {
		name string
		run  func(cfg Config) (Result, error)
	}{
		{"count", func(cfg Config) (Result, error) { return e.Count(7, cfg, c) }},
		{"trace", func(cfg Config) (Result, error) { return e.Trace(7, cfg, addrs, &rc, nil) }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			allocs := func(steps uint64) float64 {
				cfg := Config{MaxSteps: steps, ProbJitter: 0.2}
				return testing.AllocsPerRun(20, func() {
					res, err := m.run(cfg)
					if err != nil || res.Completed {
						t.Fatalf("run %+v, %v: want a capped run", res, err)
					}
				})
			}
			short, long := allocs(20_000), allocs(40_000)
			if long > short {
				t.Errorf("allocations grow with run length: %v (20k instrs) -> %v (40k instrs)", short, long)
			}
			if short > 1 {
				t.Errorf("a repeat run allocates %v times, want at most 1 (its probability slice)", short)
			}
		})
	}
}
