package check

// pageBoundsAnalyzer checks the internal consistency of the static
// page-level analysis (internal/analysis.AnalyzePages): the bound
// ordering and accounting identities that hold for any sound must/may
// classification over the page-frame geometry.
//
// The complementary *external* check — that a simulated run's measured
// page faults fall inside [Lower, Upper] and its touched pages equal
// the static footprint — needs a trace and therefore lives in
// internal/experiments.PageBoundCheck (and the icexp -analyze strict
// step), not here: this package never replays executions.
func pageBoundsAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "pagebounds",
		Doc:  "page-fault bounds are ordered and account for every page reference",
	}
	a.applies = func(u *Unit) bool { return u.Pages != nil && u.Weights != nil }
	a.run = func(u *Unit, r *reporter) {
		res := u.Pages
		b := res.Bounds

		if b.Lower > b.Upper {
			r.errorf(progLoc(), "fault lower bound %d exceeds upper bound %d", b.Lower, b.Upper)
		}
		if b.Upper > b.WeightedLineRefs {
			r.errorf(progLoc(), "fault upper bound %d exceeds total weighted page references %d",
				b.Upper, b.WeightedLineRefs)
		}

		var refs, weight uint64
		for c := range b.Refs {
			refs += b.Refs[c]
			weight += b.RefWeight[c]
		}
		if refs != uint64(b.LineRefs) {
			r.errorf(progLoc(), "class reference counts sum to %d, want %d page references",
				refs, b.LineRefs)
		}
		if weight != b.WeightedLineRefs {
			r.errorf(progLoc(), "class reference weights sum to %d, want %d", weight, b.WeightedLineRefs)
		}

		// One fetch per instruction per block execution, as measured by
		// the interpreter; capped runs stop mid-block and legitimately
		// break the identity.
		if u.Weights.Capped == 0 {
			if b.Accesses != u.Weights.DynInstrs {
				r.errorf(progLoc(), "modelled %d fetches, profile measured %d dynamic instructions",
					b.Accesses, u.Weights.DynInstrs)
			}
			// Every executed page's first-ever reference on a path is
			// not an always-hit, so the upper bound admits at least one
			// fault per footprint page.
			if b.Upper < uint64(res.Report.ExecPages) {
				r.errorf(progLoc(), "fault upper bound %d below the %d-page executed footprint",
					b.Upper, res.Report.ExecPages)
			}
		} else {
			r.skip()
		}

		rep := res.Report
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

		var fLower, fAccesses uint64
		for _, f := range res.PerFunc {
			if f.Lower > f.Upper {
				r.errorf(funcLoc(f.Func), "per-function fault lower bound %d exceeds upper bound %d",
					f.Lower, f.Upper)
			}
			fLower += f.Lower
			fAccesses += f.Accesses
		}
		// Function rows partition the always-miss weight and fetches;
		// only the upper bounds differ (the whole-program bound
		// tightens persistent pages, per-function bounds do not).
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
