package ir

import (
	"strings"
	"testing"
)

// buildDiamond constructs a single-function program:
//
//	entry -> left | right -> join(ret)
func buildDiamond(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	fb := pb.NewFunc("main")
	entry := fb.NewBlock()
	left := fb.NewBlock()
	right := fb.NewBlock()
	join := fb.NewBlock()
	fb.Fill(entry, 3)
	fb.Branch(entry, Arc{To: left, Prob: 0.7}, Arc{To: right, Prob: 0.3})
	fb.Fill(left, 2)
	fb.Jump(left, join)
	fb.Fill(right, 5)
	fb.FallThrough(right, join)
	fb.Fill(join, 1)
	fb.Ret(join)
	return pb.Build()
}

// buildCallPair constructs main -> leaf where main calls leaf twice.
func buildCallPair(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	leaf := pb.NewFunc("leaf")
	lb := leaf.NewBlock()
	leaf.Fill(lb, 4)
	leaf.Ret(lb)

	main := pb.NewFunc("main")
	mb := main.NewBlock()
	main.Fill(mb, 2)
	main.Call(mb, leaf.ID())
	main.Fill(mb, 2)
	main.Call(mb, leaf.ID())
	main.Ret(mb)
	pb.SetEntry(main.ID())
	return pb.Build()
}

func TestBuilderDiamondValid(t *testing.T) {
	p := buildDiamond(t)
	if err := Validate(p); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	if got := p.EntryFunc().Name; got != "main" {
		t.Fatalf("entry func = %q", got)
	}
}

func TestBlockBytes(t *testing.T) {
	p := buildDiamond(t)
	entry := p.Funcs[0].Blocks[0]
	// 3 filler + 1 branch terminator = 4 instructions = 16 bytes.
	if got := entry.Bytes(); got != 16 {
		t.Fatalf("entry bytes = %d, want 16", got)
	}
}

func TestProgramBytes(t *testing.T) {
	p := buildDiamond(t)
	want := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			want += len(b.Instrs) * InstrBytes
		}
	}
	if got := p.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestPreds(t *testing.T) {
	p := buildDiamond(t)
	preds := p.Funcs[0].Preds()
	join := BlockID(3)
	if len(preds[join]) != 2 {
		t.Fatalf("join has %d preds, want 2", len(preds[join]))
	}
	if len(preds[0]) != 0 {
		t.Fatalf("entry has %d preds, want 0", len(preds[0]))
	}
}

func TestStaticCallGraph(t *testing.T) {
	p := buildCallPair(t)
	adj := p.StaticCallGraph()
	if len(adj[1]) != 1 || adj[1][0] != 0 {
		t.Fatalf("main adjacency = %v, want [0]", adj[1])
	}
	if len(adj[0]) != 0 {
		t.Fatalf("leaf adjacency = %v, want empty", adj[0])
	}
}

func TestReaches(t *testing.T) {
	p := buildCallPair(t)
	if !p.Reaches(1, 0) {
		t.Fatal("main should reach leaf")
	}
	if p.Reaches(0, 1) {
		t.Fatal("leaf should not reach main")
	}
	if !p.Reaches(1, 1) {
		t.Fatal("Reaches(f, f) should be true")
	}
}

func TestValidateRejectsBadEntry(t *testing.T) {
	p := buildDiamond(t)
	p.Entry = 5
	wantErr(t, p, "entry")
}

func TestValidateRejectsDanglingArc(t *testing.T) {
	p := buildDiamond(t)
	p.Funcs[0].Blocks[0].Out[0].To = 99
	wantErr(t, p, "out of range")
}

func TestValidateRejectsBadProbSum(t *testing.T) {
	p := buildDiamond(t)
	p.Funcs[0].Blocks[0].Out[0].Prob = 0.9
	p.Funcs[0].Blocks[0].Out[1].Prob = 0.9
	wantErr(t, p, "sum")
}

func TestValidateRejectsMissingRet(t *testing.T) {
	p := buildDiamond(t)
	join := p.Funcs[0].Blocks[3]
	join.Instrs = join.Instrs[:len(join.Instrs)-1] // drop ret
	wantErr(t, p, "ret")
}

func TestValidateRejectsRetMidBlock(t *testing.T) {
	p := buildDiamond(t)
	join := p.Funcs[0].Blocks[3]
	join.Instrs = append([]Instr{{Op: OpRet, Callee: NoFunc}}, join.Instrs...)
	wantErr(t, p, "ret")
}

func TestValidateRejectsBranchWithOneArc(t *testing.T) {
	p := buildDiamond(t)
	entry := p.Funcs[0].Blocks[0]
	entry.Out = entry.Out[:1]
	entry.Out[0].Prob = 1
	wantErr(t, p, "branch")
}

func TestValidateRejectsBadCallTarget(t *testing.T) {
	p := buildCallPair(t)
	p.Funcs[1].Blocks[0].Instrs[2].Callee = 42
	wantErr(t, p, "call target")
}

func TestValidateRejectsInescapableLoop(t *testing.T) {
	pb := NewProgramBuilder()
	fb := pb.NewFunc("spin")
	a := fb.NewBlock()
	b := fb.NewBlock()
	exitB := fb.NewBlock()
	fb.Fill(a, 1)
	fb.Jump(a, b)
	fb.Fill(b, 1)
	fb.Jump(b, a)
	fb.Ret(exitB)
	// exit exists but is unreachable from the a<->b cycle.
	prog := &Program{Funcs: []*Function{pb.prog.Funcs[0]}, Entry: 0}
	if err := Validate(prog); err == nil {
		t.Fatal("expected error for inescapable loop")
	}
}

func TestValidateRejectsZeroProbOnlyEscape(t *testing.T) {
	pb := NewProgramBuilder()
	fb := pb.NewFunc("spin")
	a := fb.NewBlock()
	exitB := fb.NewBlock()
	fb.Fill(a, 1)
	fb.Append(a, Instr{Op: OpBranch, Callee: NoFunc})
	// Manually wire arcs so the only escape has probability zero.
	pb.prog.Funcs[0].Blocks[a].Out = []Arc{
		{To: a, Prob: 1},
		{To: exitB, Prob: 0},
	}
	fb.Ret(exitB)
	if err := Validate(pb.prog); err == nil {
		t.Fatal("expected error: only escape arc has probability 0")
	}
}

func wantErr(t *testing.T, p *Program, substr string) {
	t.Helper()
	err := Validate(p)
	if err == nil {
		t.Fatalf("expected validation error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildCallPair(t)
	q := Clone(p)
	q.Funcs[1].Blocks[0].Instrs[0].Op = OpStore
	q.Funcs[0].Blocks[0].Out = append(q.Funcs[0].Blocks[0].Out, Arc{})
	if p.Funcs[1].Blocks[0].Instrs[0].Op == OpStore {
		t.Fatal("instruction mutation leaked to original")
	}
	if len(p.Funcs[0].Blocks[0].Out) != 0 {
		t.Fatal("arc mutation leaked to original")
	}
}

func TestCloneEqualSizes(t *testing.T) {
	p := buildDiamond(t)
	q := Clone(p)
	if p.Bytes() != q.Bytes() || p.NumBlocks() != q.NumBlocks() {
		t.Fatal("clone changed sizes")
	}
	if err := Validate(q); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestOpcodeString(t *testing.T) {
	cases := map[Opcode]string{
		OpALU: "alu", OpLoad: "load", OpStore: "store",
		OpBranch: "branch", OpJump: "jump", OpCall: "call", OpRet: "ret",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Opcode(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if got := Opcode(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown opcode string = %q", got)
	}
}
