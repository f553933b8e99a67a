package workload

// The paper's section 5 announces the next step of the study: "we are
// expanding the benchmark set to include more than 30 UNIX and CAD
// programs." This file carries that expansion: twelve further program
// models — classic UNIX text tools plus CAD-style workloads
// (logic minimisation, routing, circuit simulation) whose deep
// data-dependent loop nests and table-driven phases differ in shape
// from the original ten.
//
// The extended models reuse the same generator; only the shape
// parameters differ. They are deliberately not used for the paper's
// Tables 1-9 (which mirror the original ten-program suite) — the
// extension experiment E5 sweeps them separately.

// ExtendedSuite builds the extension benchmarks at the given scale.
func ExtendedSuite(scale float64) []*Benchmark {
	params := ExtendedSuiteParams()
	out := make([]*Benchmark, len(params))
	for i, p := range params {
		out[i] = MustBuild(scaled(p, scale))
	}
	return out
}

// FullSuite builds the original ten benchmarks plus the extension.
func FullSuite(scale float64) []*Benchmark {
	return append(Suite(scale), ExtendedSuite(scale)...)
}

// ExtendedSuiteParams returns the extension parameter sets.
func ExtendedSuiteParams() []Params {
	base := func(name, desc string, seed uint64) Params {
		// Common defaults for a mid-sized UNIX tool; each entry below
		// overrides what makes the program distinctive.
		return Params{
			Name:      name,
			InputDesc: desc,
			Seed:      seed,

			Phases:           2,
			WorkersPerPhase:  [2]int{2, 3},
			SharedWorkerFrac: 0.2,
			WorkerSegments:   [2]int{5, 9},
			BlockInstrs:      [2]int{5, 12},
			Utilities:        6,
			UtilInstrs:       [2]int{10, 24},
			ColdFuncs:        8,
			ColdFuncInstrs:   [2]int{40, 100},
			DeadFuncs:        6,
			DeadFuncInstrs:   [2]int{50, 120},

			WorkerLoopTrips: 120,
			NestedLoopFrac:  0.15,
			NestedLoopTrips: 8,
			CallFrac:        0.18,
			DiamondFrac:     0.30,
			BranchBias:      0.87,
			ColdEscapeFrac:  0.08,
			ColdEscapeProb:  0.0002,
			PhaseTrips:      30,

			TargetInstrs:  1_500_000,
			ProfileRuns:   8,
			ProfileJitter: 0.15,
		}
	}

	sortP := base("sort", "text files, numeric and key sorts", 0x5011)
	sortP.Phases = 3 // read, sort, merge
	sortP.WorkerLoopTrips = 300
	sortP.NestedLoopFrac = 0.3 // comparison loops
	sortP.TargetInstrs = 2_500_000

	awk := base("awk", "field-extraction and report scripts", 0xA312)
	awk.Phases = 2 // compile program, run over input
	awk.WorkersPerPhase = [2]int{3, 4}
	awk.Utilities = 10
	awk.ColdFuncs = 14
	awk.DeadFuncs = 10
	awk.InitPhase = true
	awk.InitFuncs = 8
	awk.InitFuncInstrs = [2]int{60, 140}
	awk.TargetInstrs = 2_200_000

	sed := base("sed", "substitution scripts over text", 0x5ED3)
	sed.Phases = 1
	sed.WorkerLoopTrips = 900
	sed.DiamondFrac = 0.4
	sed.TargetInstrs = 1_600_000

	diff := base("diff", "pairs of revisions of C files", 0xD1F4)
	diff.Phases = 2 // hash lines, LCS
	diff.NestedLoopFrac = 0.35
	diff.NestedLoopTrips = 20
	diff.TargetInstrs = 2_000_000

	uniq := base("uniq", "sorted word lists", 0x0A15)
	uniq.Phases = 1
	uniq.WorkersPerPhase = [2]int{1, 1}
	uniq.WorkerSegments = [2]int{3, 5}
	uniq.Utilities = 2
	uniq.ColdFuncs = 3
	uniq.DeadFuncs = 2
	uniq.Syscalls = 2
	uniq.SyscallFrac = 0.03
	uniq.WorkerLoopTrips = 3000
	uniq.TargetInstrs = 900_000

	od := base("od", "binary files, several radixes", 0x0D16)
	od.Phases = 1
	od.WorkersPerPhase = [2]int{1, 2}
	od.Syscalls = 1
	od.SyscallFrac = 0.04
	od.WorkerLoopTrips = 2000
	od.DiamondFrac = 0.45 // format dispatch
	od.TargetInstrs = 1_200_000

	spell := base("spell", "documents against a dictionary", 0x59E7)
	spell.Phases = 2 // build table, look up words
	spell.InitPhase = true
	spell.InitFuncs = 10
	spell.InitFuncInstrs = [2]int{80, 180}
	spell.ColdFuncs = 12
	spell.DeadFuncs = 8
	spell.WorkerLoopTrips = 600
	spell.TargetInstrs = 2_400_000

	dc := base("dc", "arbitrary-precision calculator scripts", 0xDC18)
	dc.Phases = 1
	dc.WorkersPerPhase = [2]int{2, 2}
	dc.NestedLoopFrac = 0.4 // digit loops
	dc.NestedLoopTrips = 25
	dc.WorkerLoopTrips = 150
	dc.TargetInstrs = 1_400_000

	nroff := base("nroff", "manual pages with macro packages", 0x0FF9)
	nroff.Phases = 4 // macro expansion, fill, hyphenate, emit
	nroff.WorkersPerPhase = [2]int{3, 4}
	nroff.WorkerSegments = [2]int{7, 11}
	nroff.Utilities = 12
	nroff.ColdFuncs = 16
	nroff.DeadFuncs = 10
	nroff.WorkerLoopTrips = 40
	nroff.TargetInstrs = 2_600_000

	espresso := base("espresso", "PLA logic minimisation (CAD)", 0xE5A0)
	espresso.Phases = 4 // expand, irredundant, reduce, lastgasp
	espresso.WorkersPerPhase = [2]int{3, 5}
	espresso.WorkerSegments = [2]int{8, 13}
	espresso.BlockInstrs = [2]int{6, 14}
	espresso.NestedLoopFrac = 0.3 // cube iteration
	espresso.NestedLoopTrips = 15
	espresso.WorkerLoopTrips = 25
	espresso.PhaseTrips = 20
	espresso.Utilities = 12
	espresso.TargetInstrs = 3_000_000

	router := base("router", "channel routing of standard cells (CAD)", 0x40BB)
	router.Phases = 3 // global route, detailed route, cleanup
	router.WorkersPerPhase = [2]int{3, 4}
	router.WorkerSegments = [2]int{8, 12}
	router.NestedLoopFrac = 0.35 // grid scans
	router.NestedLoopTrips = 30
	router.WorkerLoopTrips = 20
	router.TargetInstrs = 2_800_000

	spice := base("spice", "transient analysis of small circuits (CAD)", 0x59CC)
	spice.Phases = 2 // model evaluation, matrix solve
	spice.WorkersPerPhase = [2]int{2, 3}
	spice.WorkerSegments = [2]int{9, 14}
	spice.NestedLoopFrac = 0.4 // inner solver loops
	spice.NestedLoopTrips = 35
	spice.WorkerLoopTrips = 60
	spice.PhaseTrips = 50
	spice.TargetInstrs = 3_200_000

	return []Params{sortP, awk, sed, diff, uniq, od, spell, dc, nroff, espresso, router, spice}
}
