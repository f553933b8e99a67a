package workload

// This file defines the ten benchmark models, one per program in the
// paper's Table 2. The shape parameters are calibrated so that each
// model's static code size, effective code size, dynamic length, call
// behaviour, and — most importantly — working-set structure land in
// the regime the paper reports for the corresponding program:
//
//   - cccp, make: multi-phase programs whose per-phase hot working set
//     exceeds a 2KB cache, giving the suite's worst miss ratios;
//   - yacc, tar: moderate phase structure, intermediate miss ratios;
//   - compress, grep, lex: dominated by compact hot loops, tiny miss
//     ratios despite (for lex) a large static program with one-shot
//     initialisation code;
//   - cmp, wc, tee: tiny single-loop filters; tee makes a system call
//     per iteration and cmp/wc per buffer, so their call frequencies
//     span the paper's extremes (tee cannot be improved by inlining).
//
// The paper's largest traces (lex: 3 billion instructions) are scaled
// down to a few million; miss and traffic ratios for 0.5-8KB caches
// converge well before that (see EXPERIMENTS.md).

// Suite builds the ten benchmarks with every TargetInstrs multiplied
// by scale; 1.0 is the default experiment length. Tests use smaller
// scales for speed.
func Suite(scale float64) []*Benchmark {
	params := SuiteParams()
	out := make([]*Benchmark, len(params))
	for i, p := range params {
		out[i] = MustBuild(scaled(p, scale))
	}
	return out
}

// ByName builds a single benchmark from the suite by name; it returns
// nil if the name is unknown.
func ByName(name string, scale float64) *Benchmark {
	for _, p := range SuiteParams() {
		if p.Name == name {
			return MustBuild(scaled(p, scale))
		}
	}
	return nil
}

// minScaledInstrs is the shortest run a scaled benchmark is given.
const minScaledInstrs = 50_000

// scaled returns p with TargetInstrs multiplied by scale. A scale that
// is not above zero (NaN included) means 1.0. The result is at least
// minScaledInstrs and at most maxTargetInstrs, so no scale overflows
// the step guard; command-line flags reject such scales before they
// get here (cliutil.AddScaleFlag).
func scaled(p Params, scale float64) Params {
	if !(scale > 0) {
		scale = 1
	}
	switch t := float64(p.TargetInstrs) * scale; {
	case t >= maxTargetInstrs:
		p.TargetInstrs = maxTargetInstrs
	case t < minScaledInstrs:
		p.TargetInstrs = minScaledInstrs
	default:
		p.TargetInstrs = uint64(t)
	}
	return p
}

// SuiteParams returns the parameter sets of the ten benchmark models
// in the paper's table order.
func SuiteParams() []Params {
	return []Params{
		{
			Name:      "cccp",
			InputDesc: "C programs (100-3000 lines)",
			Seed:      0xCC01,

			Phases:           5,
			WorkersPerPhase:  [2]int{3, 4},
			SharedWorkerFrac: 0.1,
			WorkerSegments:   [2]int{12, 22},
			BlockInstrs:      [2]int{7, 15},
			Utilities:        12,
			UtilInstrs:       [2]int{12, 32},
			ColdFuncs:        6,
			ColdFuncInstrs:   [2]int{50, 120},
			DeadFuncs:        2,
			DeadFuncInstrs:   [2]int{60, 140},

			WorkerLoopTrips: 6,
			NestedLoopFrac:  0.15,
			NestedLoopTrips: 8,
			CallFrac:        0.20,
			DiamondFrac:     0.30,
			BranchBias:      0.85,
			ColdEscapeFrac:  0.12,
			ColdEscapeProb:  0.0004,
			PhaseTrips:      40,

			TargetInstrs:  3_300_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		},
		{
			Name:      "cmp",
			InputDesc: "similar/dissimilar text files",
			Seed:      0xC302,

			Phases:           1,
			WorkersPerPhase:  [2]int{1, 1},
			SharedWorkerFrac: 0,
			WorkerSegments:   [2]int{4, 5},
			BlockInstrs:      [2]int{4, 9},
			Utilities:        3,
			UtilInstrs:       [2]int{8, 18},
			Syscalls:         2,
			ColdFuncs:        4,
			ColdFuncInstrs:   [2]int{30, 70},
			DeadFuncs:        3,
			DeadFuncInstrs:   [2]int{50, 110},

			WorkerLoopTrips: 2500,
			NestedLoopFrac:  0.10,
			NestedLoopTrips: 4,
			CallFrac:        0.15,
			SyscallFrac:     0.02,
			DiamondFrac:     0.35,
			BranchBias:      0.9,
			ColdEscapeFrac:  0.10,
			ColdEscapeProb:  0.0002,
			PhaseTrips:      25,

			TargetInstrs:  1_100_000,
			ProfileRuns:   20,
			ProfileJitter: 0.2,
		},
		{
			Name:      "compress",
			InputDesc: "same as cccp",
			Seed:      0xC003,

			Phases:           2,
			WorkersPerPhase:  [2]int{2, 3},
			SharedWorkerFrac: 0.3,
			WorkerSegments:   [2]int{7, 10},
			BlockInstrs:      [2]int{6, 12},
			Utilities:        8,
			UtilInstrs:       [2]int{10, 26},
			ColdFuncs:        14,
			ColdFuncInstrs:   [2]int{50, 130},
			DeadFuncs:        14,
			DeadFuncInstrs:   [2]int{70, 160},

			WorkerLoopTrips: 180,
			NestedLoopFrac:  0.20,
			NestedLoopTrips: 10,
			CallFrac:        0.18,
			DiamondFrac:     0.30,
			BranchBias:      0.88,
			ColdEscapeFrac:  0.10,
			ColdEscapeProb:  0.0002,
			PhaseTrips:      30,

			TargetInstrs:  2_800_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		},
		{
			Name:      "grep",
			InputDesc: "exercised various options",
			Seed:      0x6304,

			Phases:           1,
			WorkersPerPhase:  [2]int{2, 2},
			SharedWorkerFrac: 0,
			WorkerSegments:   [2]int{6, 9},
			BlockInstrs:      [2]int{6, 12},
			Utilities:        6,
			UtilInstrs:       [2]int{10, 24},
			ColdFuncs:        14,
			ColdFuncInstrs:   [2]int{50, 120},
			DeadFuncs:        12,
			DeadFuncInstrs:   [2]int{70, 150},

			WorkerLoopTrips: 700,
			NestedLoopFrac:  0.25,
			NestedLoopTrips: 12,
			CallFrac:        0.15,
			DiamondFrac:     0.35,
			BranchBias:      0.9,
			ColdEscapeFrac:  0.08,
			ColdEscapeProb:  0.0002,
			PhaseTrips:      40,

			TargetInstrs:  1_800_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		},
		{
			Name:      "lex",
			InputDesc: "lexers for C, Lisp, awk, and pic",
			Seed:      0x1E05,

			Phases:           2,
			WorkersPerPhase:  [2]int{2, 3},
			SharedWorkerFrac: 0.3,
			WorkerSegments:   [2]int{5, 8},
			BlockInstrs:      [2]int{6, 12},
			Utilities:        10,
			UtilInstrs:       [2]int{12, 28},
			ColdFuncs:        26,
			ColdFuncInstrs:   [2]int{70, 180},
			DeadFuncs:        16,
			DeadFuncInstrs:   [2]int{80, 200},

			WorkerLoopTrips: 900,
			NestedLoopFrac:  0.20,
			NestedLoopTrips: 15,
			CallFrac:        0.18,
			DiamondFrac:     0.30,
			BranchBias:      0.9,
			ColdEscapeFrac:  0.08,
			ColdEscapeProb:  0.0001,
			PhaseTrips:      60,

			InitPhase:      true,
			InitFuncs:      18,
			InitFuncInstrs: [2]int{100, 240},

			TargetInstrs:  6_000_000,
			ProfileRuns:   4,
			ProfileJitter: 0.15,
		},
		{
			Name:      "make",
			InputDesc: "makefiles for cccp, compress, etc.",
			Seed:      0x3A06,

			Phases:           6,
			WorkersPerPhase:  [2]int{4, 5},
			SharedWorkerFrac: 0.15,
			WorkerSegments:   [2]int{8, 12},
			BlockInstrs:      [2]int{7, 15},
			Utilities:        14,
			UtilInstrs:       [2]int{12, 30},
			ColdFuncs:        10,
			ColdFuncInstrs:   [2]int{30, 80},
			DeadFuncs:        1,
			DeadFuncInstrs:   [2]int{40, 80},

			WorkerLoopTrips: 7,
			NestedLoopFrac:  0.12,
			NestedLoopTrips: 6,
			CallFrac:        0.22,
			DiamondFrac:     0.32,
			BranchBias:      0.8,
			ColdEscapeFrac:  0.10,
			ColdEscapeProb:  0.0004,
			PhaseTrips:      25,

			TargetInstrs:  3_500_000,
			ProfileRuns:   20,
			ProfileJitter: 0.2,
		},
		{
			Name:      "tar",
			InputDesc: "save/extract files",
			Seed:      0x7A07,

			Phases:           3,
			WorkersPerPhase:  [2]int{3, 4},
			SharedWorkerFrac: 0.2,
			WorkerSegments:   [2]int{6, 10},
			BlockInstrs:      [2]int{6, 13},
			Utilities:        10,
			UtilInstrs:       [2]int{10, 26},
			Syscalls:         3,
			ColdFuncs:        18,
			ColdFuncInstrs:   [2]int{60, 150},
			DeadFuncs:        16,
			DeadFuncInstrs:   [2]int{80, 180},

			WorkerLoopTrips: 60,
			NestedLoopFrac:  0.15,
			NestedLoopTrips: 8,
			CallFrac:        0.18,
			SyscallFrac:     0.06,
			DiamondFrac:     0.30,
			BranchBias:      0.85,
			ColdEscapeFrac:  0.10,
			ColdEscapeProb:  0.0003,
			PhaseTrips:      30,

			TargetInstrs:  1_500_000,
			ProfileRuns:   14,
			ProfileJitter: 0.18,
		},
		{
			Name:      "tee",
			InputDesc: "text files (100-3000 lines)",
			Seed:      0x7E08,

			Phases:           1,
			WorkersPerPhase:  [2]int{1, 1},
			SharedWorkerFrac: 0,
			WorkerSegments:   [2]int{2, 3},
			BlockInstrs:      [2]int{3, 7},
			Utilities:        2,
			UtilInstrs:       [2]int{6, 14},
			Syscalls:         2,
			ColdFuncs:        5,
			ColdFuncInstrs:   [2]int{30, 70},
			DeadFuncs:        4,
			DeadFuncInstrs:   [2]int{50, 100},

			WorkerLoopTrips: 400,
			NestedLoopFrac:  0,
			NestedLoopTrips: 1,
			CallFrac:        0,
			SyscallFrac:     0.7,
			DiamondFrac:     0.15,
			BranchBias:      0.9,
			ColdEscapeFrac:  0.05,
			ColdEscapeProb:  0.0002,
			PhaseTrips:      15,

			TargetInstrs:  430_000,
			ProfileRuns:   12,
			ProfileJitter: 0.2,
		},
		{
			Name:      "wc",
			InputDesc: "same as cccp",
			Seed:      0x3C09,

			Phases:           1,
			WorkersPerPhase:  [2]int{1, 1},
			SharedWorkerFrac: 0,
			WorkerSegments:   [2]int{3, 4},
			BlockInstrs:      [2]int{4, 8},
			Utilities:        2,
			UtilInstrs:       [2]int{6, 14},
			Syscalls:         1,
			ColdFuncs:        4,
			ColdFuncInstrs:   [2]int{30, 60},
			DeadFuncs:        3,
			DeadFuncInstrs:   [2]int{50, 100},

			WorkerLoopTrips: 5000,
			NestedLoopFrac:  0.05,
			NestedLoopTrips: 3,
			CallFrac:        0.02,
			SyscallFrac:     0.01,
			DiamondFrac:     0.45,
			BranchBias:      0.85,
			ColdEscapeFrac:  0.05,
			ColdEscapeProb:  0.0001,
			PhaseTrips:      10,

			TargetInstrs:  2_200_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		},
		{
			Name:      "yacc",
			InputDesc: "grammar for a C compiler, etc.",
			Seed:      0x9A0A,

			Phases:           4,
			WorkersPerPhase:  [2]int{4, 5},
			SharedWorkerFrac: 0.25,
			WorkerSegments:   [2]int{7, 10},
			BlockInstrs:      [2]int{6, 14},
			Utilities:        12,
			UtilInstrs:       [2]int{12, 28},
			ColdFuncs:        18,
			ColdFuncInstrs:   [2]int{50, 130},
			DeadFuncs:        10,
			DeadFuncInstrs:   [2]int{70, 160},

			WorkerLoopTrips: 90,
			NestedLoopFrac:  0.18,
			NestedLoopTrips: 10,
			CallFrac:        0.20,
			DiamondFrac:     0.30,
			BranchBias:      0.87,
			ColdEscapeFrac:  0.10,
			ColdEscapeProb:  0.0003,
			PhaseTrips:      35,

			InitPhase:      true,
			InitFuncs:      8,
			InitFuncInstrs: [2]int{80, 180},

			TargetInstrs:  3_300_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		},
	}
}
