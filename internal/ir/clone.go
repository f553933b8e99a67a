package ir

// CloneBlock returns a deep copy of b with the given new ID.
func CloneBlock(b *Block, id BlockID) *Block {
	nb := &Block{ID: id}
	if len(b.Instrs) > 0 {
		nb.Instrs = make([]Instr, len(b.Instrs))
		copy(nb.Instrs, b.Instrs)
	}
	if len(b.Out) > 0 {
		nb.Out = make([]Arc, len(b.Out))
		copy(nb.Out, b.Out)
	}
	return nb
}

// cloneFunc returns a deep copy of f.
func cloneFunc(f *Function) *Function {
	nf := &Function{ID: f.ID, Name: f.Name, Entry: f.Entry, NoInline: f.NoInline}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = CloneBlock(b, b.ID)
	}
	return nf
}

// Clone returns a deep copy of p. Passes that transform programs (such
// as inline expansion and code scaling) clone first so the caller's
// program is never mutated.
func Clone(p *Program) *Program {
	np := &Program{Entry: p.Entry}
	np.Funcs = make([]*Function, len(p.Funcs))
	for i, f := range p.Funcs {
		np.Funcs[i] = cloneFunc(f)
	}
	return np
}
