package layout

import (
	"testing"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/memtrace"
)

// branchy builds a program with enough control flow that its traces
// exercise merging, jumps, and repeat visits.
func branchy(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 5)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	head := main.NewBlock()
	body := main.NewBlock()
	exit := main.NewBlock()
	main.Fill(head, 2)
	main.FallThrough(head, body)
	main.Fill(body, 3)
	main.Call(body, leaf.ID())
	main.Branch(body, ir.Arc{To: body, Prob: 0.8}, ir.Arc{To: exit, Prob: 0.2})
	main.Fill(exit, 1)
	main.Ret(exit)
	pb.SetEntry(main.ID())
	return pb.Build()
}

// TestStreamMatchesTrace is the streaming-generation differential: the
// run sequence Stream delivers must be exactly the materialized
// trace's canonical runs, and the execution results must agree.
func TestStreamMatchesTrace(t *testing.T) {
	p := branchy(t)
	cfg := interp.Config{MaxSteps: 5000, ProbJitter: 0.3}
	for _, lay := range []*Layout{Natural(p), Random(p, 3)} {
		for seed := uint64(1); seed <= 5; seed++ {
			want, wres, err := Trace(lay, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got memtrace.Trace
			var raw []memtrace.Run
			sres, err := Stream(lay, seed, cfg, memtrace.Tee(&got, collector{&raw}))
			if err != nil {
				t.Fatal(err)
			}
			if sres != wres {
				t.Fatalf("seed %d: Stream result %+v, Trace result %+v", seed, sres, wres)
			}
			if len(raw) != len(want.Runs) {
				t.Fatalf("seed %d: Stream delivered %d runs, Trace has %d", seed, len(raw), len(want.Runs))
			}
			for i := range raw {
				if raw[i] != want.Runs[i] {
					t.Fatalf("seed %d run %d: Stream %+v, Trace %+v", seed, i, raw[i], want.Runs[i])
				}
			}
			if got.Instrs != want.Instrs {
				t.Fatalf("seed %d: Stream instrs %d, Trace %d", seed, got.Instrs, want.Instrs)
			}
		}
	}
}

// collector records raw deliveries without canonicalising, so the test
// sees exactly what Stream emits.
type collector struct{ runs *[]memtrace.Run }

func (c collector) Run(r memtrace.Run) { *c.runs = append(*c.runs, r) }

// TestStreamCappedRun pins behaviour at the step cap: the run stops
// gracefully (Completed false) and the stream still flushes its
// pending run — the capped trace equals the materialized capped trace.
func TestStreamCappedRun(t *testing.T) {
	p := branchy(t)
	cfg := interp.Config{MaxSteps: 7}
	lay := Natural(p)
	want, wres, err := Trace(lay, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Completed {
		t.Fatal("expected capped run")
	}
	var got memtrace.Trace
	sres, err := Stream(lay, 1, cfg, &got)
	if err != nil {
		t.Fatal(err)
	}
	if sres != wres {
		t.Fatalf("Stream result %+v, Trace result %+v", sres, wres)
	}
	if got.Instrs != want.Instrs || len(got.Runs) != len(want.Runs) {
		t.Fatalf("capped stream %d runs / %d instrs, trace %d / %d",
			len(got.Runs), got.Instrs, len(want.Runs), want.Instrs)
	}
}
