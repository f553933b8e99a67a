package check

import "impact/internal/analysis"

// The bounds and pagebounds analyzers check the internal consistency
// of a static analysis (internal/analysis) of a layout, over cache
// lines and over pages. Both results come from one must/may engine, so
// the two share boundsIdentities and each adds the checks of its own
// result type.
//
// The complementary *external* check — that a simulated run's measured
// misses or faults fall inside [Lower, Upper] — needs a trace and
// therefore lives in internal/experiments.BoundCheck and
// PageBoundCheck, not here: this package never replays executions.

// boundsIdentities checks what every analysis of the engine satisfies:
// Lower ≤ Upper ≤ the weighted references; the reference classes
// partition the references and their weight; the modelled fetches
// equal the profile's dynamic instructions when no run was capped; and
// the per-function rows are ordered and partition Lower and Accesses.
// bound names the bounded event ("miss" or "fault") and ref the unit
// referenced ("line" or "page") in the diagnostics.
func boundsIdentities(u *Unit, r *reporter, b analysis.Bounds, rows []analysis.FuncBounds, bound, ref string) {
	if b.Lower > b.Upper {
		r.errorf(progLoc(), "%s lower bound %d exceeds upper bound %d", bound, b.Lower, b.Upper)
	}
	if b.Upper > b.WeightedLineRefs {
		r.errorf(progLoc(), "%s upper bound %d exceeds total weighted %s references %d",
			bound, b.Upper, ref, b.WeightedLineRefs)
	}

	var refs, weight uint64
	for c := range b.Refs {
		refs += b.Refs[c]
		weight += b.RefWeight[c]
	}
	if refs != uint64(b.LineRefs) {
		r.errorf(progLoc(), "class reference counts sum to %d, want %d %s references",
			refs, b.LineRefs, ref)
	}
	if weight != b.WeightedLineRefs {
		r.errorf(progLoc(), "class reference weights sum to %d, want %d", weight, b.WeightedLineRefs)
	}

	// The analyzer models one fetch per instruction per block
	// execution — exactly what the interpreter counts — so with
	// complete runs the modelled access count must equal the measured
	// dynamic instruction count. Capped runs stop mid-block and
	// legitimately break the identity.
	if u.Weights.Capped == 0 {
		if b.Accesses != u.Weights.DynInstrs {
			r.errorf(progLoc(), "modelled %d fetches, profile measured %d dynamic instructions",
				b.Accesses, u.Weights.DynInstrs)
		}
	} else {
		r.skip()
	}

	var fLower, fAccesses uint64
	for _, f := range rows {
		if f.Lower > f.Upper {
			r.errorf(funcLoc(f.Func), "per-function %s lower bound %d exceeds upper bound %d",
				bound, f.Lower, f.Upper)
		}
		fLower += f.Lower
		fAccesses += f.Accesses
	}
	// Function rows partition the program's always-miss weight and
	// fetches; only the upper bounds differ (the whole-program bound
	// tightens persistent lines and pages, per-function bounds do not).
	if fLower != b.Lower {
		r.errorf(progLoc(), "per-function lower bounds sum to %d, want program lower bound %d",
			fLower, b.Lower)
	}
	if fAccesses != b.Accesses {
		r.errorf(progLoc(), "per-function fetch counts sum to %d, want %d", fAccesses, b.Accesses)
	}
}

// boundsAnalyzer checks the static cache-behavior analysis: the shared
// identities over cache lines, and the layout score's ranges.
func boundsAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "bounds",
		Doc:  "static analysis bounds are ordered and account for every reference",
	}
	a.applies = func(u *Unit) bool { return u.Analysis != nil && u.Weights != nil }
	a.run = func(u *Unit, r *reporter) {
		res := u.Analysis
		boundsIdentities(u, r, res.Bounds, res.PerFunc, "miss", "line")
		if s := res.Score; s.ExtTSP < 0 || s.ExtTSP > 1 {
			r.errorf(progLoc(), "ext-TSP score %g outside [0, 1]", s.ExtTSP)
		}
		if s := res.Score; s.FallThrough > s.TotalWeight {
			r.errorf(progLoc(), "fall-through weight %d exceeds total transfer weight %d",
				s.FallThrough, s.TotalWeight)
		}
	}
	return a
}

// pageBoundsAnalyzer checks the static page-level analysis
// (analysis.AnalyzePages): the shared identities over pages, the fault
// upper bound against the executed footprint, and the page-pressure
// report's accounting.
func pageBoundsAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "pagebounds",
		Doc:  "page-fault bounds are ordered and account for every page reference",
	}
	a.applies = func(u *Unit) bool { return u.Pages != nil && u.Weights != nil }
	a.run = func(u *Unit, r *reporter) {
		res := u.Pages
		boundsIdentities(u, r, res.Bounds, res.PerFunc, "fault", "page")

		rep := res.Report
		// Every executed page's first-ever reference on a path is not an
		// always-hit, so the upper bound of a complete run admits at
		// least one fault per footprint page.
		if u.Weights.Capped == 0 && res.Bounds.Upper < uint64(rep.ExecPages) {
			r.errorf(progLoc(), "fault upper bound %d below the %d-page executed footprint",
				res.Bounds.Upper, rep.ExecPages)
		}
		if rep.ExecPages > rep.CodePages {
			r.errorf(progLoc(), "executed footprint %d pages exceeds %d code pages",
				rep.ExecPages, rep.CodePages)
		}
		if rep.HotPages > rep.ExecPages {
			r.errorf(progLoc(), "hot working set %d pages exceeds %d-page footprint",
				rep.HotPages, rep.ExecPages)
		}
		if rep.WasteBytes > uint64(rep.ExecPages*res.Paging.PageBytes) {
			r.errorf(progLoc(), "waste %dB exceeds the executed pages' %dB",
				rep.WasteBytes, rep.ExecPages*res.Paging.PageBytes)
		}
		if res.Paging.Frames == 0 && (rep.ThrashScopes != 0 || len(rep.Pairs) != 0) {
			r.errorf(progLoc(), "unbounded frames report %d thrashing scopes and %d pairs",
				rep.ThrashScopes, len(rep.Pairs))
		}
	}
	return a
}
