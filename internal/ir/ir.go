// Package ir defines the compiler intermediate representation used by
// the IMPACT-I instruction placement reproduction.
//
// A Program is a set of Functions; a Function is a control-flow graph
// of Blocks; a Block is a list of fixed-size Instrs plus outgoing Arcs.
// This mirrors exactly what the paper's placement algorithm consumes: a
// weighted call graph whose nodes are functions, and a weighted control
// graph per function whose nodes are basic blocks.
//
// Instructions are 4 bytes each, matching the paper's "fixed
// instruction format (32 bits/instruction) RISC type processor".
//
// Behavioural annotations: each Arc carries Prob, the probability the
// execution engine takes that arc when control leaves the block. These
// probabilities model the program's response to its inputs and are used
// ONLY by internal/interp; the placement passes must consume measured
// profile weights (internal/profile), never Prob. This separation
// mirrors the paper, where the compiler sees profiling output, not the
// program's actual runtime behaviour.
package ir

import "fmt"

// InstrBytes is the size of every instruction in bytes.
const InstrBytes = 4

// Opcode classifies an instruction. The placement algorithm only cares
// about control-relevant opcodes (Call, Ret, Branch); the rest exist so
// synthetic programs have realistic instruction mixes and so code
// scaling (Table 9) can vary filler counts without touching structure.
type Opcode uint8

const (
	// OpALU is a register-to-register computation.
	OpALU Opcode = iota
	// OpLoad is a data-memory read.
	OpLoad
	// OpStore is a data-memory write.
	OpStore
	// OpBranch is a conditional branch terminating a block with
	// multiple successors.
	OpBranch
	// OpJump is an unconditional jump terminating a block with one
	// successor.
	OpJump
	// OpCall transfers control to another function and returns to the
	// next instruction. Callee identifies the target.
	OpCall
	// OpRet returns from the current function. A block whose last
	// instruction is OpRet must have no outgoing arcs.
	OpRet

	numOpcodes
)

var opcodeNames = [numOpcodes]string{"alu", "load", "store", "branch", "jump", "call", "ret"}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// FuncID identifies a function by its index in Program.Funcs.
type FuncID int32

// NoFunc is the nil FuncID.
const NoFunc FuncID = -1

// BlockID identifies a block by its index in Function.Blocks.
type BlockID int32

// NoBlock is the nil BlockID.
const NoBlock BlockID = -1

// Instr is one fixed-size machine instruction.
type Instr struct {
	Op Opcode
	// Callee is the call target when Op == OpCall, NoFunc otherwise.
	Callee FuncID
}

// Arc is an outgoing control-flow edge of a block.
type Arc struct {
	// To is the destination block within the same function.
	To BlockID
	// Prob is the behavioural probability of taking this arc; see the
	// package comment. The probabilities of a block's arcs sum to 1.
	Prob float64
}

// Block is a basic block: straight-line instructions with control
// entering at the top and leaving at the bottom. A block may be empty
// (zero instructions); empty blocks arise from inline expansion when a
// call is the last instruction of its block.
type Block struct {
	ID     BlockID
	Instrs []Instr
	// Out lists the outgoing arcs. A block with no arcs is a function
	// exit and must end with OpRet.
	Out []Arc
}

// Bytes returns the block's code size in bytes.
func (b *Block) Bytes() int { return len(b.Instrs) * InstrBytes }

// CallSites returns the indices of call instructions in the block.
func (b *Block) CallSites() []int {
	var sites []int
	for i, in := range b.Instrs {
		if in.Op == OpCall {
			sites = append(sites, i)
		}
	}
	return sites
}

// Function is a single procedure: a CFG of basic blocks.
type Function struct {
	ID   FuncID
	Name string
	// Blocks is indexed by BlockID: Blocks[i].ID == BlockID(i).
	Blocks []*Block
	// Entry is the block where execution of the function begins.
	Entry BlockID
	// NoInline marks functions that inline expansion must never
	// expand. It models the paper's system-call boundary: "Since
	// system calls can not be inline expanded, the call frequency of
	// tee is extremely high."
	NoInline bool
}

// Bytes returns the function's total code size in bytes.
func (f *Function) Bytes() int {
	total := 0
	for _, b := range f.Blocks {
		total += b.Bytes()
	}
	return total
}

// Preds computes the predecessor lists of every block. The result is
// indexed by BlockID; each entry lists the blocks with an arc into it.
func (f *Function) Preds() [][]BlockID {
	preds := make([][]BlockID, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, a := range b.Out {
			preds[a.To] = append(preds[a.To], b.ID)
		}
	}
	return preds
}

// Program is a whole compiled program: a set of functions and the
// entry function (conventionally "main").
type Program struct {
	// Funcs is indexed by FuncID: Funcs[i].ID == FuncID(i).
	Funcs []*Function
	Entry FuncID
}

// EntryFunc returns the program's entry function.
func (p *Program) EntryFunc() *Function { return p.Funcs[p.Entry] }

// Bytes returns the program's total static code size in bytes.
func (p *Program) Bytes() int {
	total := 0
	for _, f := range p.Funcs {
		total += f.Bytes()
	}
	return total
}

// NumBlocks returns the total number of basic blocks in the program.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// CallSite identifies one call instruction in a program.
type CallSite struct {
	Func  FuncID
	Block BlockID
	Instr int32
}

// Callee returns the target of the call at site s.
func (p *Program) Callee(s CallSite) FuncID {
	return p.Funcs[s.Func].Blocks[s.Block].Instrs[s.Instr].Callee
}

// StaticCallGraph returns, for each function, the set of distinct
// callees (static call graph adjacency). The result is indexed by
// FuncID.
func (p *Program) StaticCallGraph() [][]FuncID {
	adj := make([][]FuncID, len(p.Funcs))
	for _, f := range p.Funcs {
		seen := make(map[FuncID]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall && !seen[in.Callee] {
					seen[in.Callee] = true
					adj[f.ID] = append(adj[f.ID], in.Callee)
				}
			}
		}
	}
	return adj
}

// Reaches reports whether function from can (transitively) call
// function to in the static call graph. It is used by inline expansion
// to refuse call sites that would create self-inlining cycles.
func (p *Program) Reaches(from, to FuncID) bool {
	adj := p.StaticCallGraph()
	seen := make([]bool, len(p.Funcs))
	stack := []FuncID{from}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f == to {
			return true
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		stack = append(stack, adj[f]...)
	}
	return false
}
