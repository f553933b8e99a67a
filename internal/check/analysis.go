package check

// boundsAnalyzer checks the internal consistency of the static
// cache-behavior analysis (internal/analysis): the bound ordering and
// accounting identities that hold for any sound must/may
// classification, independent of the analysed geometry.
//
// The complementary *external* check — that a simulated run's measured
// misses fall inside [Lower, Upper] — needs a trace and therefore
// lives in internal/experiments.BoundCheck (and the icexp -analyze
// strict step), not here: this package never replays executions.
func boundsAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "bounds",
		Doc:  "static analysis bounds are ordered and account for every reference",
	}
	a.applies = func(u *Unit) bool { return u.Analysis != nil && u.Weights != nil }
	a.run = func(u *Unit, r *reporter) {
		res := u.Analysis
		b := res.Bounds

		if b.Lower > b.Upper {
			r.errorf(progLoc(), "miss lower bound %d exceeds upper bound %d", b.Lower, b.Upper)
		}
		if b.Upper > b.WeightedLineRefs {
			r.errorf(progLoc(), "miss upper bound %d exceeds total weighted line references %d",
				b.Upper, b.WeightedLineRefs)
		}

		var refs, weight uint64
		for c := range b.Refs {
			refs += b.Refs[c]
			weight += b.RefWeight[c]
		}
		if refs != uint64(b.LineRefs) {
			r.errorf(progLoc(), "class reference counts sum to %d, want %d line references",
				refs, b.LineRefs)
		}
		if weight != b.WeightedLineRefs {
			r.errorf(progLoc(), "class reference weights sum to %d, want %d", weight, b.WeightedLineRefs)
		}

		// The analyzer models one fetch per instruction per block
		// execution — exactly what the interpreter counts — so with
		// complete runs the modelled access count must equal the
		// measured dynamic instruction count. Capped runs stop
		// mid-block and legitimately break the identity.
		if u.Weights.Capped == 0 {
			if b.Accesses != u.Weights.DynInstrs {
				r.errorf(progLoc(), "modelled %d fetches, profile measured %d dynamic instructions",
					b.Accesses, u.Weights.DynInstrs)
			}
		} else {
			r.skip()
		}

		if s := res.Score; s.ExtTSP < 0 || s.ExtTSP > 1 {
			r.errorf(progLoc(), "ext-TSP score %g outside [0, 1]", s.ExtTSP)
		}
		if s := res.Score; s.FallThrough > s.TotalWeight {
			r.errorf(progLoc(), "fall-through weight %d exceeds total transfer weight %d",
				s.FallThrough, s.TotalWeight)
		}

		var fLower, fAccesses uint64
		for _, f := range res.PerFunc {
			if f.Lower > f.Upper {
				r.errorf(funcLoc(f.Func), "per-function miss lower bound %d exceeds upper bound %d",
					f.Lower, f.Upper)
			}
			fLower += f.Lower
			fAccesses += f.Accesses
		}
		// Function rows partition the program's always-miss weight and
		// fetches; only the upper bounds differ (the whole-program
		// bound tightens persistent lines, per-function bounds do not).
		if fLower != b.Lower {
			r.errorf(progLoc(), "per-function lower bounds sum to %d, want program lower bound %d",
				fLower, b.Lower)
		}
		if fAccesses != b.Accesses {
			r.errorf(progLoc(), "per-function fetch counts sum to %d, want %d", fAccesses, b.Accesses)
		}
	}
	return a
}
