package ir

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func textFixture(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	sys := pb.NewFunc("sys_read")
	sb := sys.NewBlock()
	sys.Fill(sb, 3)
	sys.Ret(sb)
	pb.Peek().Funcs[sys.ID()].NoInline = true

	m := pb.NewFunc("main")
	e := m.NewBlock()
	l := m.NewBlock()
	x := m.NewBlock()
	m.Fill(e, 4)
	m.FallThrough(e, l)
	m.Fill(l, 2)
	m.Call(l, sys.ID())
	m.Fill(l, 1)
	m.Branch(l, Arc{To: l, Prob: 0.9}, Arc{To: x, Prob: 0.1})
	m.Fill(x, 1)
	m.Ret(x)
	pb.SetEntry(m.ID())
	return pb.Build()
}

func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v\n--- encoded ---\n%s", err, buf.String())
	}
	return got
}

func TestTextRoundTrip(t *testing.T) {
	p := textFixture(t)
	got := roundTrip(t, p)
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed program:\noriginal: %+v\ndecoded:  %+v", p, got)
	}
}

func TestTextRoundTripPreservesAttributes(t *testing.T) {
	p := textFixture(t)
	got := roundTrip(t, p)
	if !got.Funcs[0].NoInline {
		t.Fatal("NoInline lost in round trip")
	}
	if got.Entry != p.Entry {
		t.Fatal("entry function lost")
	}
	if got.Funcs[1].Entry != p.Funcs[1].Entry {
		t.Fatal("entry block lost")
	}
}

func TestTextRunLengthEncoding(t *testing.T) {
	pb := NewProgramBuilder()
	fb := pb.NewFunc("f")
	b := fb.NewBlock()
	for i := 0; i < 6; i++ {
		fb.Append(b, Instr{Op: OpALU, Callee: NoFunc})
	}
	fb.Ret(b)
	p := pb.Build()

	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alu*6") {
		t.Fatalf("expected run-length compression in:\n%s", buf.String())
	}
	got := roundTrip(t, p)
	if !reflect.DeepEqual(p, got) {
		t.Fatal("run-length round trip not identical")
	}
}

func TestDecodeAcceptsCommentsAndBlanks(t *testing.T) {
	src := `
# a program
program entry=0

func 0 main
# the only block
block 0 entry
  alu*2
  ret
`
	p, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 1 || len(p.Funcs[0].Blocks[0].Instrs) != 3 {
		t.Fatalf("decoded %+v", p)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"missing entry":      "func 0 f\nblock 0 entry\n ret\n",
		"dup program":        "program entry=0\nprogram entry=0\nfunc 0 f\nblock 0 entry\n ret\n",
		"func out of seq":    "program entry=0\nfunc 1 f\nblock 0 entry\n ret\n",
		"bad func attr":      "program entry=0\nfunc 0 f wat\nblock 0 entry\n ret\n",
		"block out of seq":   "program entry=0\nfunc 0 f\nblock 1 entry\n ret\n",
		"block outside func": "program entry=0\nblock 0 entry\n",
		"dup entry block":    "program entry=0\nfunc 0 f\nblock 0 entry\n ret\nblock 1 entry\n ret\n",
		"arc outside block":  "program entry=0\n-> 0 1\n",
		"bad arc":            "program entry=0\nfunc 0 f\nblock 0 entry\n -> x 1\n ret\n",
		"bad prob":           "program entry=0\nfunc 0 f\nblock 0 entry\n -> 0 zzz\n",
		"unknown op":         "program entry=0\nfunc 0 f\nblock 0 entry\n frobnicate\n",
		"bad repeat":         "program entry=0\nfunc 0 f\nblock 0 entry\n alu*0\n ret\n",
		"bad call target":    "program entry=0\nfunc 0 f\nblock 0 entry\n call:x\n ret\n",
		"instrs after arcs":  "program entry=0\nfunc 0 f\nblock 0 entry\n jump\n -> 0 1\n alu\n",
		"fails validation":   "program entry=0\nfunc 0 f\nblock 0 entry\n alu\n", // no ret
		"dangling call":      "program entry=0\nfunc 0 f\nblock 0 entry\n call:7\n ret\n",
		"code past 4GB":      "program entry=0\nfunc 0 f\nblock 0 entry\n alu*2000000000\n ret\n",
	}
	for name, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeInstrsOutsideBlock(t *testing.T) {
	src := "program entry=0\nfunc 0 f\n alu\n"
	if _, err := Decode(strings.NewReader(src)); err == nil {
		t.Fatal("instructions before any block accepted")
	}
}

func TestTextRoundTripLargeProgram(t *testing.T) {
	// A synthetic program with many blocks exercises every opcode and
	// the sequencing rules at scale.
	pb := NewProgramBuilder()
	callee := pb.NewFunc("callee")
	cb := callee.NewBlock()
	callee.Fill(cb, 7)
	callee.Ret(cb)
	fb := pb.NewFunc("big")
	var prev BlockID = NoBlock
	for i := 0; i < 50; i++ {
		b := fb.NewBlock()
		fb.Fill(b, i%9+1)
		if i%5 == 2 {
			fb.Call(b, callee.ID())
		}
		if prev != NoBlock {
			fb.FallThrough(prev, b)
		}
		prev = b
	}
	last := fb.NewBlock()
	fb.Ret(last)
	fb.FallThrough(prev, last)
	pb.SetEntry(fb.ID())
	p := pb.Build()

	got := roundTrip(t, p)
	if got.Bytes() != p.Bytes() || got.NumBlocks() != p.NumBlocks() {
		t.Fatal("large program round trip changed sizes")
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatal("large program round trip not identical")
	}
}
