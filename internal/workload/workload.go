// Package workload synthesises the benchmark programs used by the
// reproduction.
//
// The paper evaluates on ten UNIX C programs (cccp, cmp, compress,
// grep, lex, make, tar, tee, wc, yacc) compiled by IMPACT-I from their
// real sources and profiled on real input files. Neither the binaries
// nor the inputs are available, so this package builds one generative
// program model per benchmark, calibrated to the characteristics the
// paper reports (Tables 2, 3, 5): static code size, effective code
// size, dynamic instruction count, call frequency, and the hot-loop /
// phase structure that drives each program's cache behaviour.
//
// Every model is a seeded deterministic construction: the same Params
// always produce the same ir.Program, and the behavioural arc
// probabilities embedded in the IR make the execution engine reproduce
// the intended loop trip counts, branch biases, and phase schedule.
// "Inputs" are engine seeds: profiling uses ProfileRuns distinct
// seeds, evaluation uses one held-out seed, exactly mirroring the
// paper's protocol of profiling on many inputs and tracing one
// randomly selected input.
package workload

import (
	"fmt"
	"math"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/xrand"
)

// Params describes one synthetic benchmark. The fields fall into
// three groups: code shape (static structure), behaviour (loop trip
// counts and branch biases baked into arc probabilities), and the
// experiment protocol (profiling runs, trace length).
type Params struct {
	// Name identifies the benchmark (matches the paper's tables).
	Name string
	// InputDesc describes what the modelled inputs stand for
	// (Table 2's "input description").
	InputDesc string
	// Seed drives all generation randomness.
	Seed uint64

	// --- code shape ---

	// Phases is the number of top-level phase functions main cycles
	// through. Multi-phase programs (cccp, make) change their working
	// set over time; single-phase programs (wc, cmp) are one loop.
	Phases int
	// WorkersPerPhase is the [min, max] number of worker functions
	// each phase calls per iteration.
	WorkersPerPhase [2]int
	// SharedWorkerFrac is the probability a phase reuses an
	// already-generated worker instead of creating a new one
	// (modelling shared library/utility routines).
	SharedWorkerFrac float64
	// WorkerSegments is the [min, max] number of body segments in a
	// worker's main loop.
	WorkerSegments [2]int
	// BlockInstrs is the [min, max] filler instructions per block.
	BlockInstrs [2]int
	// Utilities is the number of small leaf functions workers call.
	Utilities int
	// UtilInstrs is the [min, max] size of a utility body.
	UtilInstrs [2]int
	// Syscalls is the number of kernel-boundary stub functions
	// (NoInline); zero for programs that rarely enter the kernel.
	Syscalls int
	// ColdFuncs is the number of error-handling functions reachable
	// only from cold paths.
	ColdFuncs int
	// ColdFuncInstrs is the [min, max] size of a cold function.
	ColdFuncInstrs [2]int
	// DeadFuncs is the number of never-called functions (unused
	// library code contributing to total static size only).
	DeadFuncs int
	// DeadFuncInstrs is the [min, max] size of a dead function.
	DeadFuncInstrs [2]int

	// --- behaviour ---

	// WorkerLoopTrips is the expected iteration count of a worker's
	// main loop per call.
	WorkerLoopTrips float64
	// NestedLoopFrac is the probability a worker segment is a small
	// nested loop.
	NestedLoopFrac float64
	// NestedLoopTrips is the expected trip count of nested loops.
	NestedLoopTrips float64
	// CallFrac is the probability a worker segment calls a utility.
	CallFrac float64
	// SyscallFrac is the probability a worker segment calls a syscall
	// stub (only meaningful when Syscalls > 0).
	SyscallFrac float64
	// DiamondFrac is the probability a worker segment is an if/else
	// diamond.
	DiamondFrac float64
	// BranchBias is the probability of the hot side of a diamond.
	BranchBias float64
	// ColdEscapeFrac is the probability a worker segment carries a
	// rarely-taken error exit (taken with probability ColdEscapeProb).
	ColdEscapeFrac float64
	// ColdEscapeProb is the probability an error exit is taken.
	ColdEscapeProb float64
	// PhaseTrips is the expected iteration count of a phase's loop per
	// call from main.
	PhaseTrips float64
	// InitPhase, when true, prepends a one-shot initialisation phase
	// that touches several mid-sized functions exactly once per run
	// (modelling table construction in lex/yacc).
	InitPhase bool
	// InitFuncs / InitFuncInstrs size the initialisation code.
	InitFuncs      int
	InitFuncInstrs [2]int

	// --- experiment protocol ---

	// TargetInstrs is the desired dynamic length of the evaluation
	// trace; main's outer loop probability is solved from it.
	TargetInstrs uint64
	// ProfileRuns is the number of profiling inputs (Table 2 "runs").
	ProfileRuns int
	// ProfileJitter perturbs behaviour per run so profiling inputs
	// differ from each other and from the evaluation input.
	ProfileJitter float64
}

// Validate reports structural problems in the parameters.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.Phases < 1:
		return fmt.Errorf("workload %s: Phases %d < 1", p.Name, p.Phases)
	case p.WorkersPerPhase[0] < 1 || p.WorkersPerPhase[1] < p.WorkersPerPhase[0]:
		return fmt.Errorf("workload %s: bad WorkersPerPhase %v", p.Name, p.WorkersPerPhase)
	case p.WorkerSegments[0] < 1 || p.WorkerSegments[1] < p.WorkerSegments[0]:
		return fmt.Errorf("workload %s: bad WorkerSegments %v", p.Name, p.WorkerSegments)
	case p.BlockInstrs[0] < 1 || p.BlockInstrs[1] < p.BlockInstrs[0]:
		return fmt.Errorf("workload %s: bad BlockInstrs %v", p.Name, p.BlockInstrs)
	case p.WorkerLoopTrips < 1:
		return fmt.Errorf("workload %s: WorkerLoopTrips %v < 1", p.Name, p.WorkerLoopTrips)
	case p.PhaseTrips < 1:
		return fmt.Errorf("workload %s: PhaseTrips %v < 1", p.Name, p.PhaseTrips)
	case p.TargetInstrs == 0:
		return fmt.Errorf("workload %s: TargetInstrs is zero", p.Name)
	case p.TargetInstrs > maxTargetInstrs:
		return fmt.Errorf("workload %s: TargetInstrs %d overflows the step guard (max %d)",
			p.Name, p.TargetInstrs, uint64(maxTargetInstrs))
	case p.ProfileRuns < 1:
		return fmt.Errorf("workload %s: ProfileRuns %d < 1", p.Name, p.ProfileRuns)
	}
	return nil
}

// Benchmark is a generated program plus its experiment protocol.
type Benchmark struct {
	Params Params
	Prog   *ir.Program
	// ProfileSeeds are the profiling inputs.
	ProfileSeeds []uint64
	// EvalSeed is the held-out input for the evaluation trace.
	EvalSeed uint64
	// ExpectedInstrs is the analytic estimate of one run's dynamic
	// instruction count (used to set step guards).
	ExpectedInstrs float64
}

// Name returns the benchmark's name.
func (b *Benchmark) Name() string { return b.Params.Name }

// InterpConfig returns the engine configuration for profiling runs.
func (b *Benchmark) InterpConfig() interp.Config {
	return interp.Config{
		MaxSteps:   b.stepGuard(),
		ProbJitter: b.Params.ProfileJitter,
	}
}

// EvalConfig returns the engine configuration for the evaluation
// trace. The evaluation input uses the same jitter family as the
// profiling inputs — it is simply one more input the compiler never
// profiled on.
func (b *Benchmark) EvalConfig() interp.Config {
	return interp.Config{
		MaxSteps:   b.stepGuard(),
		ProbJitter: b.Params.ProfileJitter,
	}
}

// stepGuard caps runaway executions at several times the target
// length; geometric loop tails occasionally overshoot the mean.
func (b *Benchmark) stepGuard() uint64 {
	return 4*b.Params.TargetInstrs + 1<<20
}

// maxTargetInstrs is the largest TargetInstrs whose step guard fits in
// a uint64; Validate rejects larger ones rather than let the guard
// wrap to a tiny cap that silently truncates every run.
const maxTargetInstrs = (math.MaxUint64 - 1<<20) / 4

// Build generates the benchmark for p. Generation is deterministic in
// p (including p.Seed).
func Build(p Params) (*Benchmark, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := newGen(p)
	prog, expected := g.program()
	if err := ir.Validate(prog); err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid program: %w", p.Name, err)
	}
	b := &Benchmark{
		Params:         p,
		Prog:           prog,
		EvalSeed:       xrand.Seed(p.Seed, 0xE7A1),
		ExpectedInstrs: expected,
	}
	for i := 0; i < p.ProfileRuns; i++ {
		b.ProfileSeeds = append(b.ProfileSeeds, xrand.Seed(p.Seed, 0x9801, uint64(i)))
	}
	return b, nil
}

// MustBuild is Build for static parameter sets known to be valid.
func MustBuild(p Params) *Benchmark {
	b, err := Build(p)
	if err != nil {
		panic(err)
	}
	return b
}
