package ir

import "math"

// ScaleCode returns a copy of p in which the number of non-control
// instructions in every basic block is scaled by factor, reproducing
// the paper's code scaling experiment (Table 9): "The scaling affects
// the size of all basic blocks uniformly. ... the effect of code
// scaling is shown as changes in the number of instructions in basic
// blocks. For each basic block, the number of instructions is rounded
// to the nearest integer value."
//
// Control-relevant instructions (call, ret, branch, jump) are
// preserved exactly so the program's control behaviour — and therefore
// its dynamic block trace — is unchanged; only the code footprint
// changes, exactly as a denser or sparser instruction encoding would
// behave. factor must be a finite number above zero.
func ScaleCode(p *Program, factor float64) *Program {
	if !(factor > 0) || math.IsInf(factor, 1) {
		panic("ir: ScaleCode with a factor that is not a finite number above zero")
	}
	np := Clone(p)
	for _, f := range np.Funcs {
		for _, b := range f.Blocks {
			b.Instrs = scaleBlock(b.Instrs, factor)
		}
	}
	return np
}

func scaleBlock(instrs []Instr, factor float64) []Instr {
	structural := 0
	for _, in := range instrs {
		if isStructural(in.Op) {
			structural++
		}
	}
	target := int(math.Round(float64(len(instrs)) * factor))
	if target < structural {
		target = structural
	}
	fillerBudget := target - structural
	oldFiller := len(instrs) - structural

	out := make([]Instr, 0, target)
	emitFiller := func(n int) {
		for i := 0; i < n; i++ {
			op := OpALU
			switch len(out) % 4 {
			case 1:
				op = OpLoad
			case 3:
				op = OpStore
			}
			out = append(out, Instr{Op: op, Callee: NoFunc})
		}
	}

	if oldFiller == 0 {
		// Purely structural block: prepend any extra filler (only
		// possible when rounding up), keeping the terminator last.
		emitFiller(fillerBudget)
		out = append(out, instrs...)
	} else {
		// Distribute the scaled filler budget across the original
		// filler positions so calls keep their relative placement
		// within the block.
		seen, emitted := 0, 0
		for _, in := range instrs {
			if isStructural(in.Op) {
				out = append(out, in)
				continue
			}
			seen++
			want := fillerBudget * seen / oldFiller
			emitFiller(want - emitted)
			emitted = want
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func isStructural(op Opcode) bool {
	switch op {
	case OpCall, OpRet, OpBranch, OpJump:
		return true
	}
	return false
}
