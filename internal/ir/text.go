package ir

// Textual IR serialization. The format is line-oriented and
// diff-friendly so generated programs can be dumped, inspected,
// version-controlled, and reloaded by the command-line tools:
//
//	# comments and blank lines are ignored
//	program entry=2
//
//	func 0 leaf
//	block 0 entry
//	  alu*2 load store
//	  ret
//
//	func 1 sys_read noinline
//	...
//
//	func 2 main
//	block 0 entry
//	  alu call:0 alu
//	  branch
//	  -> 0 0.95
//	  -> 1 0.05
//
// Instruction lines hold whitespace-separated tokens `op[*count]`;
// call instructions name their target as `call:<funcid>`. Arc lines
// are `-> <block> <prob>`. Function and block IDs must equal their
// declaration order, matching the in-memory invariant.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Encode writes p in the textual IR format.
func Encode(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# impact IR\nprogram entry=%d\n", p.Entry)
	for _, f := range p.Funcs {
		fmt.Fprintf(bw, "\nfunc %d %s", f.ID, f.Name)
		if f.NoInline {
			bw.WriteString(" noinline")
		}
		bw.WriteByte('\n')
		for _, b := range f.Blocks {
			fmt.Fprintf(bw, "block %d", b.ID)
			if b.ID == f.Entry {
				bw.WriteString(" entry")
			}
			bw.WriteByte('\n')
			if len(b.Instrs) > 0 {
				bw.WriteString(" ")
				encodeInstrs(bw, b.Instrs)
				bw.WriteByte('\n')
			}
			for _, a := range b.Out {
				fmt.Fprintf(bw, " -> %d %g\n", a.To, a.Prob)
			}
		}
	}
	return bw.Flush()
}

func encodeInstrs(bw *bufio.Writer, instrs []Instr) {
	for i := 0; i < len(instrs); {
		in := instrs[i]
		n := 1
		for i+n < len(instrs) && instrs[i+n] == in {
			n++
		}
		if i > 0 {
			bw.WriteByte(' ')
		}
		if in.Op == OpCall {
			fmt.Fprintf(bw, "call:%d", in.Callee)
		} else {
			bw.WriteString(in.Op.String())
		}
		if n > 1 {
			fmt.Fprintf(bw, "*%d", n)
		}
		i += n
	}
}

// ErrBadText reports a malformed textual IR input.
var ErrBadText = errors.New("ir: malformed textual IR")

// maxTextInstrs is the most instructions a decoded program may hold:
// its code, end address included, must fit layouts' 32-bit addresses.
const maxTextInstrs = (1<<32 - 1) / InstrBytes

type decoder struct {
	prog      *Program
	curFunc   *Function
	entrySeen bool
	line      int
	decoded   int // instructions decoded so far
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadText, d.line, fmt.Sprintf(format, args...))
}

// Decode parses a program in the textual IR format and validates it.
func Decode(r io.Reader) (*Program, error) {
	d := &decoder{prog: &Program{Entry: NoFunc}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		d.line++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch {
		case fields[0] == "program":
			err = d.program(fields[1:])
		case fields[0] == "func":
			err = d.function(fields[1:])
		case fields[0] == "block":
			err = d.block(fields[1:])
		case fields[0] == "->":
			err = d.arc(fields[1:])
		default:
			err = d.instrs(fields)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadText, err)
	}
	if !d.entrySeen {
		return nil, fmt.Errorf("%w: missing program entry declaration", ErrBadText)
	}
	if err := Validate(d.prog); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadText, err)
	}
	return d.prog, nil
}

func (d *decoder) program(args []string) error {
	if d.entrySeen {
		return d.errf("duplicate program declaration")
	}
	if len(args) != 1 || !strings.HasPrefix(args[0], "entry=") {
		return d.errf("want `program entry=<funcid>`")
	}
	id, err := strconv.Atoi(strings.TrimPrefix(args[0], "entry="))
	if err != nil {
		return d.errf("bad entry id: %v", err)
	}
	d.prog.Entry = FuncID(id)
	d.entrySeen = true
	return nil
}

func (d *decoder) function(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return d.errf("want `func <id> <name> [noinline]`")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil || id != len(d.prog.Funcs) {
		return d.errf("func id %q out of sequence (want %d)", args[0], len(d.prog.Funcs))
	}
	f := &Function{ID: FuncID(id), Name: args[1], Entry: NoBlock}
	if len(args) == 3 {
		if args[2] != "noinline" {
			return d.errf("unknown func attribute %q", args[2])
		}
		f.NoInline = true
	}
	d.prog.Funcs = append(d.prog.Funcs, f)
	d.curFunc = f
	return nil
}

func (d *decoder) block(args []string) error {
	if d.curFunc == nil {
		return d.errf("block outside func")
	}
	if len(args) < 1 || len(args) > 2 {
		return d.errf("want `block <id> [entry]`")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil || id != len(d.curFunc.Blocks) {
		return d.errf("block id %q out of sequence (want %d)", args[0], len(d.curFunc.Blocks))
	}
	b := &Block{ID: BlockID(id)}
	if len(args) == 2 {
		if args[1] != "entry" {
			return d.errf("unknown block attribute %q", args[1])
		}
		if d.curFunc.Entry != NoBlock {
			return d.errf("duplicate entry block")
		}
		d.curFunc.Entry = b.ID
	}
	d.curFunc.Blocks = append(d.curFunc.Blocks, b)
	return nil
}

func (d *decoder) curBlock() *Block {
	if d.curFunc == nil || len(d.curFunc.Blocks) == 0 {
		return nil
	}
	return d.curFunc.Blocks[len(d.curFunc.Blocks)-1]
}

func (d *decoder) arc(args []string) error {
	b := d.curBlock()
	if b == nil {
		return d.errf("arc outside block")
	}
	if len(args) != 2 {
		return d.errf("want `-> <block> <prob>`")
	}
	to, err := strconv.Atoi(args[0])
	if err != nil {
		return d.errf("bad arc target %q", args[0])
	}
	prob, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return d.errf("bad arc probability %q", args[1])
	}
	b.Out = append(b.Out, Arc{To: BlockID(to), Prob: prob})
	return nil
}

func (d *decoder) instrs(tokens []string) error {
	b := d.curBlock()
	if b == nil {
		return d.errf("instructions outside block")
	}
	if len(b.Out) > 0 {
		return d.errf("instructions after arcs")
	}
	for _, tok := range tokens {
		op := tok
		count := 1
		if star := strings.IndexByte(tok, '*'); star >= 0 {
			n, err := strconv.Atoi(tok[star+1:])
			if err != nil || n < 1 {
				return d.errf("bad repeat count in %q", tok)
			}
			count = n
			op = tok[:star]
		}
		in := Instr{Callee: NoFunc}
		switch {
		case strings.HasPrefix(op, "call:"):
			id, err := strconv.Atoi(strings.TrimPrefix(op, "call:"))
			if err != nil {
				return d.errf("bad call target in %q", tok)
			}
			in.Op = OpCall
			in.Callee = FuncID(id)
		case op == "alu":
			in.Op = OpALU
		case op == "load":
			in.Op = OpLoad
		case op == "store":
			in.Op = OpStore
		case op == "branch":
			in.Op = OpBranch
		case op == "jump":
			in.Op = OpJump
		case op == "ret":
			in.Op = OpRet
		default:
			return d.errf("unknown instruction %q", tok)
		}
		if count > maxTextInstrs-d.decoded {
			return d.errf("%q takes the program over %d instructions, the most a 32-bit address space holds", tok, maxTextInstrs)
		}
		d.decoded += count
		for i := 0; i < count; i++ {
			b.Instrs = append(b.Instrs, in)
		}
	}
	return nil
}
