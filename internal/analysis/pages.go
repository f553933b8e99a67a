package analysis

import (
	"fmt"
	"sort"

	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/paging"
	"impact/internal/profile"
)

// Page-level abstract interpretation — the must/may + persistence
// machinery of absint.go and persist.go lifted from cache lines to
// page frames. Demand paging with LRU replacement over F frames is
// exactly a fully associative LRU cache whose blocks are pages: one
// set, associativity F, block size PageBytes. The analysis engine
// (incremental.go) is geometry-parameterised already, so the page
// analysis is that engine — supergraph, solver, persistence scopes,
// classifier — run over a pageGeom; the only page-specific code is the
// geometry constructor and the report.
//
// The payoff mirrors the cache bounds: for a single complete execution
// matching the weights, paging.Simulate's fault count provably lies in
// [Bounds.Lower, Bounds.Upper]. Splitting or merging trace runs never
// changes LRU fault counts (adjacent touches of one page hit at the
// MRU position), so the bracket holds for the merged trace the
// pipeline actually replays. internal/experiments.PageBoundCheck and
// the check.StagePaging analyzer enforce the invariant; see
// docs/ANALYSIS.md ("Page bounds") for the soundness argument.

// PageConfig parameterises one page-level analysis.
type PageConfig struct {
	// Paging is the page geometry analysed: the page size and the
	// number of resident frames (0 = unbounded, only cold faults).
	Paging paging.Config
	// TopPages bounds how many pressured pages and straddling
	// functions the report keeps; TopPairs bounds the thrash pairs.
	// Zero means 8 / 8; a negative size is an error.
	TopPages, TopPairs int
	// Obs, when non-nil, receives analysis.pages.* counters and spans.
	Obs *obs.Registry
	// Lane attributes the analysis spans to one tracer lane; zero is
	// the main lane.
	Lane obs.Lane
}

// PageResult is the complete page-level analysis of one layout under
// one paging geometry.
type PageResult struct {
	// Paging is the analysed geometry.
	Paging paging.Config
	// Bounds is the whole-program page-fault classification and
	// bounds: Lower/Upper bracket paging.Simulate's Faults, Accesses
	// matches its instruction fetch count, and the per-class
	// Refs/RefWeight describe weighted page references.
	Bounds Bounds
	// PerFunc holds per-function fault bounds for functions with any
	// profiled fetches, in FuncID order.
	PerFunc []FuncBounds
	// Report ranks the page-pressure hot spots.
	Report PageReport
	// Regions is the size of the region supergraph.
	Regions int
	// Iterations counts the solver's column evaluations until
	// fixpoint (see Result.Iterations).
	Iterations int
}

// PageShare is one function's share of an executed page.
type PageShare struct {
	// Func / FuncName identify the function.
	Func     ir.FuncID
	FuncName string
	// Bytes counts the function's executed bytes on the page.
	Bytes uint32
	// Fetches is the function's weighted instruction fetches on the
	// page.
	Fetches uint64
}

// PagePressure describes one executed page's fetch demand.
type PagePressure struct {
	// Page is the page index (Addr / page bytes).
	Page uint32
	// Addr is the page's first byte address.
	Addr uint32
	// Fetches is the weighted instruction fetches on the page.
	Fetches uint64
	// Bytes counts the page's executed bytes (union over regions).
	Bytes uint32
	// Funcs lists the functions sharing the page, descending by
	// fetches.
	Funcs []PageShare
}

// PageStraddle is a function whose executed code spans several pages —
// every sojourn through it can demand that many frames at once.
type PageStraddle struct {
	// Func / Name identify the function.
	Func ir.FuncID
	Name string
	// Pages counts the distinct pages holding the function's executed
	// code.
	Pages int
	// Fetches is the function's total weighted instruction fetches.
	Fetches uint64
}

// PagePair is a ranked pair of functions thrashing page frames: both
// execute inside a loop scope whose page footprint exceeds the frame
// count, on code that does not all share one page.
type PagePair struct {
	// A / B identify the pair, A < B.
	A, B         ir.FuncID
	AName, BName string
	// Fetches sums, over every thrashing scope containing both
	// functions, the smaller of the two functions' in-scope fetch
	// weights — an upper estimate of the fetches their contention can
	// disturb.
	Fetches uint64
}

// PageReport ranks the page-pressure hot spots of one layout under one
// paging geometry.
type PageReport struct {
	// CodePages counts the pages spanned by the laid-out code;
	// ExecPages counts those with executed fetches — the static page
	// footprint. When the weights are exact, ExecPages equals
	// paging.Stats.PagesTouched.
	CodePages, ExecPages int
	// WasteBytes counts bytes on executed pages that no executed
	// region covers — padding and cold code riding along on demand
	// pages ("all the bytes of that page are likely to be used" is the
	// paper's goal; waste measures how far the layout falls short).
	WasteBytes uint64
	// HotPages is the fewest executed pages covering >= 90% of all
	// instruction fetches — the static working-set estimate to hold
	// next to paging.WorkingSet's dynamic per-window average.
	HotPages int
	// ThrashScopes counts loop scopes whose executed page footprint
	// exceeds the frame count — loops that cannot run resident and
	// fault on every lap (0 when Frames is unbounded).
	ThrashScopes int
	// TopPages ranks the executed pages by fetch demand, descending.
	TopPages []PagePressure
	// Straddles ranks multi-page functions by fetch weight,
	// descending.
	Straddles []PageStraddle
	// Pairs ranks the thrashing function pairs, descending by fetches.
	Pairs []PagePair
}

// pageGeom resolves a paging configuration against a layout size as a
// fully associative LRU cache geometry: pages as blocks, one set,
// Frames as the associativity. Frames 0 (unbounded memory) and frame
// counts beyond the page count admit no eviction at all, which the
// ageing domains express as an associativity equal to the number of
// pages. Associativities beyond the byte age domain saturate exactly
// like newGeom's (must evicts early at 254 — sound; may never evicts —
// sound).
func pageGeom(cfg paging.Config, totalBytes uint32) geom {
	bb := uint32(cfg.PageBytes)
	pages := (totalBytes + bb - 1) / bb
	assoc := uint32(cfg.Frames)
	if assoc == 0 || assoc > pages {
		assoc = pages
	}
	return makeGeom(bb, 1, assoc, pages)
}

// AnalyzePages statically analyses the laid-out program's paging
// behaviour under the given profile weights. It reads only lay, w, and
// cfg — no trace is decoded, no execution replayed.
//
// Bound semantics match Analyze: when Bounds.Exact (weights from one
// complete run), the page faults of simulating that run's trace on
// cfg.Paging lie in [Bounds.Lower, Bounds.Upper] and ExecPages equals
// the simulator's PagesTouched. Otherwise the bounds describe the
// abstract single-execution model of the aggregated weights.
func AnalyzePages(lay *layout.Layout, w *profile.Weights, cfg PageConfig) (*PageResult, error) {
	if err := validatePages(lay, w, &cfg); err != nil {
		return nil, err
	}

	reg := cfg.Obs
	root := reg.SpanOn(cfg.Lane, "analysis.pages")
	defer root.End()

	inc := newPageEngine(lay, w, cfg.Paging, root)
	sp := root.Span("report")
	report := buildPageReport(inc.sg, inc.g, inc.sc, inc.lin.fits, lay, cfg)
	sp.End()

	er := inc.Result()
	res := &PageResult{
		Paging:     cfg.Paging,
		Bounds:     er.Bounds,
		PerFunc:    er.PerFunc,
		Report:     report,
		Regions:    er.Regions,
		Iterations: er.Iterations,
	}
	root.SetAttr("paging", fmt.Sprintf("%dB x %d frames", cfg.Paging.PageBytes, cfg.Paging.Frames))
	root.SetAttrInt("regions", int64(res.Regions))
	root.SetAttrInt("exec_pages", int64(report.ExecPages))
	reg.Counter("analysis.pages.runs").Inc()
	reg.Counter("analysis.pages.iterations").Add(uint64(res.Iterations))
	reg.Counter("analysis.pages.exec_pages").Add(uint64(report.ExecPages))
	reg.Counter("analysis.pages.thrash_scopes").Add(uint64(report.ThrashScopes))
	return res, nil
}

// newPageEngine builds the analysis engine over cfg's page-frame
// geometry, with its spans under root.
func newPageEngine(lay *layout.Layout, w *profile.Weights, cfg paging.Config, root *obs.Span) *Incremental {
	return newEngine(lay, w, Config{}, pageGeom(cfg, lay.Total), true, root)
}

// validatePages rejects inputs outside the page model and fills in
// cfg's report-size defaults.
func validatePages(lay *layout.Layout, w *profile.Weights, cfg *PageConfig) error {
	if err := validateInput(lay, w); err != nil {
		return err
	}
	if err := cfg.Paging.Validate(); err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	if cfg.TopPages < 0 || cfg.TopPairs < 0 {
		return fmt.Errorf("analysis: negative report size (TopPages %d, TopPairs %d)", cfg.TopPages, cfg.TopPairs)
	}
	if cfg.TopPages == 0 {
		cfg.TopPages = 8
	}
	if cfg.TopPairs == 0 {
		cfg.TopPairs = 8
	}
	return nil
}

// buildPageReport assembles the page-pressure report: per-page fetch
// demand and function shares, the executed footprint and its waste,
// the static working-set estimate, multi-page functions, and the
// thrashing function pairs of over-footprint loop scopes.
func buildPageReport(sg *supergraph, g geom, sc *sccInfo, fits [][]bool, lay *layout.Layout, cfg PageConfig) PageReport {
	p := lay.Program()
	pages := int(g.numLines)
	rep := PageReport{CodePages: pages}

	// Per-page fetch demand and executed-byte coverage. Coverage uses
	// a word bitmap so overlapping regions (shared blocks re-entered
	// from several segments never overlap, but empty-tail regions do
	// share addresses) are not double counted.
	fetches := make([]uint64, pages)
	words := make([]bool, (lay.Total+ir.InstrBytes-1)/ir.InstrBytes)
	shares := make([][]PageShare, pages)
	nFuncs := len(p.Funcs)
	funcFetch := make([]uint64, nFuncs)
	funcPages := make([]int32, nFuncs)
	markF := make([]int32, pages) // last func counted per page
	for i := range markF {
		markF[i] = -1
	}
	for ri := range sg.regions {
		r := &sg.regions[ri]
		if r.weight == 0 || r.words == 0 {
			continue
		}
		end := r.addr + uint32(r.words)*ir.InstrBytes
		for wd := r.addr / ir.InstrBytes; wd < end/ir.InstrBytes; wd++ {
			words[wd] = true
		}
		funcFetch[r.f] += r.weight * uint64(r.words)
		l0, l1, _ := r.lineRange(g.blockBytes)
		for l := l0; l <= l1; l++ {
			lo, hi := l*g.blockBytes, (l+1)*g.blockBytes
			if r.addr > lo {
				lo = r.addr
			}
			if end < hi {
				hi = end
			}
			fw := r.weight * uint64((hi-lo)/ir.InstrBytes)
			fetches[l] += fw
			if markF[l] != int32(r.f) {
				markF[l] = int32(r.f)
				funcPages[r.f]++
			}
			ss := shares[l]
			if n := len(ss); n > 0 && ss[n-1].Func == r.f {
				ss[n-1].Bytes += hi - lo
				ss[n-1].Fetches += fw
			} else {
				shares[l] = append(ss, PageShare{Func: r.f, FuncName: p.Funcs[r.f].Name, Bytes: hi - lo, Fetches: fw})
			}
		}
	}

	// Footprint, waste, and the hot working-set estimate.
	var total uint64
	var hot []uint64
	for l := 0; l < pages; l++ {
		if fetches[l] == 0 {
			continue
		}
		rep.ExecPages++
		total += fetches[l]
		hot = append(hot, fetches[l])
		lo, hi := uint32(l)*g.blockBytes, (uint32(l)+1)*g.blockBytes
		if hi > lay.Total {
			hi = lay.Total
		}
		covered := uint32(0)
		for wd := lo / ir.InstrBytes; wd < hi/ir.InstrBytes; wd++ {
			if words[wd] {
				covered++
			}
		}
		rep.WasteBytes += uint64(uint32(cfg.Paging.PageBytes) - covered*ir.InstrBytes)
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i] > hot[j] })
	need := total - total/10 // ceil-free 90% threshold: covered >= total-total/10
	var acc uint64
	for _, fw := range hot {
		acc += fw
		rep.HotPages++
		if acc >= need {
			break
		}
	}

	// Ranked pages.
	for l := 0; l < pages; l++ {
		if fetches[l] == 0 {
			continue
		}
		ss := shares[l]
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Fetches != ss[j].Fetches {
				return ss[i].Fetches > ss[j].Fetches
			}
			return ss[i].Func < ss[j].Func
		})
		var bytes uint32
		for _, s := range ss {
			bytes += s.Bytes
		}
		rep.TopPages = append(rep.TopPages, PagePressure{
			Page: uint32(l), Addr: uint32(l) * g.blockBytes,
			Fetches: fetches[l], Bytes: bytes, Funcs: ss,
		})
	}
	sort.Slice(rep.TopPages, func(i, j int) bool {
		if rep.TopPages[i].Fetches != rep.TopPages[j].Fetches {
			return rep.TopPages[i].Fetches > rep.TopPages[j].Fetches
		}
		return rep.TopPages[i].Page < rep.TopPages[j].Page
	})
	if len(rep.TopPages) > cfg.TopPages {
		rep.TopPages = rep.TopPages[:cfg.TopPages]
	}

	// Straddling functions.
	for fi := 0; fi < nFuncs; fi++ {
		if funcPages[fi] > 1 {
			rep.Straddles = append(rep.Straddles, PageStraddle{
				Func: ir.FuncID(fi), Name: p.Funcs[fi].Name,
				Pages: int(funcPages[fi]), Fetches: funcFetch[fi],
			})
		}
	}
	sort.Slice(rep.Straddles, func(i, j int) bool {
		if rep.Straddles[i].Fetches != rep.Straddles[j].Fetches {
			return rep.Straddles[i].Fetches > rep.Straddles[j].Fetches
		}
		return rep.Straddles[i].Func < rep.Straddles[j].Func
	})
	if len(rep.Straddles) > cfg.TopPages {
		rep.Straddles = rep.Straddles[:cfg.TopPages]
	}

	// Thrashing pairs: scopes whose executed page footprint exceeds
	// the frames cannot run resident (fits[s][0] is false — one set),
	// so every lap re-faults; the functions inside contend for frames
	// unless all their code shares one page.
	if cfg.Paging.Frames > 0 {
		pairW := make(map[[2]ir.FuncID]uint64)
		type scopeFunc struct {
			f     ir.FuncID
			fetch uint64
			pages int32
			first int32
		}
		markP := make([]int32, pages)
		for i := range markP {
			markP[i] = -1
		}
		var stamp int32 // one per (scope, function): scope members are
		// ascending by region index, which groups them by function
		for s := range sc.members {
			if fits[s][0] {
				continue
			}
			rep.ThrashScopes++
			var sfs []scopeFunc
			for _, ri := range sc.members[s] {
				r := &sg.regions[ri]
				if r.weight == 0 || r.words == 0 {
					continue
				}
				if n := len(sfs); n == 0 || sfs[n-1].f != r.f {
					sfs = append(sfs, scopeFunc{f: r.f, first: -1})
					stamp++
				}
				sf := &sfs[len(sfs)-1]
				sf.fetch += r.weight * uint64(r.words)
				l0, l1, _ := r.lineRange(g.blockBytes)
				for l := l0; l <= l1; l++ {
					if markP[l] == stamp {
						continue
					}
					markP[l] = stamp
					sf.pages++
					if sf.first < 0 {
						sf.first = int32(l)
					}
				}
			}
			for i := 0; i < len(sfs); i++ {
				for j := i + 1; j < len(sfs); j++ {
					a, b := &sfs[i], &sfs[j]
					if a.f == b.f {
						continue
					}
					if a.pages == 1 && b.pages == 1 && a.first == b.first {
						continue // all code on one shared page: no contention
					}
					w := a.fetch
					if b.fetch < w {
						w = b.fetch
					}
					k := [2]ir.FuncID{a.f, b.f}
					if k[0] > k[1] {
						k[0], k[1] = k[1], k[0]
					}
					pairW[k] += w
				}
			}
		}
		//lint:maprange pairs fully sorted below
		for k, wgt := range pairW {
			rep.Pairs = append(rep.Pairs, PagePair{
				A: k[0], B: k[1],
				AName: p.Funcs[k[0]].Name, BName: p.Funcs[k[1]].Name,
				Fetches: wgt,
			})
		}
		sort.Slice(rep.Pairs, func(i, j int) bool {
			if rep.Pairs[i].Fetches != rep.Pairs[j].Fetches {
				return rep.Pairs[i].Fetches > rep.Pairs[j].Fetches
			}
			if rep.Pairs[i].A != rep.Pairs[j].A {
				return rep.Pairs[i].A < rep.Pairs[j].A
			}
			return rep.Pairs[i].B < rep.Pairs[j].B
		})
		if len(rep.Pairs) > cfg.TopPairs {
			rep.Pairs = rep.Pairs[:cfg.TopPairs]
		}
	}
	return rep
}

// PageEngine re-derives page-fault bounds for candidate layouts of one
// program — the page-frame instance of the analysis engine, built for
// the layout search's objective. Bounds moves the engine to the
// candidate with an incremental update, so its results are exactly
// AnalyzePages' bounds for the same layout. Engines are not safe for
// concurrent use; Clone gives each search worker its own.
type PageEngine struct {
	cfg paging.Config
	inc *Incremental
}

// NewPageEngine builds an engine for lay's program under the given
// profile weights and paging geometry.
func NewPageEngine(lay *layout.Layout, w *profile.Weights, cfg paging.Config) (*PageEngine, error) {
	if err := validatePages(lay, w, &PageConfig{Paging: cfg}); err != nil {
		return nil, err
	}
	return &PageEngine{cfg: cfg, inc: newPageEngine(lay, w, cfg, nil)}, nil
}

// Bounds returns the page-fault bounds of lay, which must lay out the
// same program the engine was built for.
func (e *PageEngine) Bounds(lay *layout.Layout) (Bounds, error) {
	if lay == e.inc.Layout() {
		return e.inc.Result().Bounds, nil
	}
	res, err := e.inc.Update(lay)
	if err != nil {
		return Bounds{}, err
	}
	return res.Bounds, nil
}

// Pack scores how tightly lay packs the executed bytes into pages: the
// sum over executed pages of the squared executed-byte count. The total
// of executed bytes is the same for every global order, so a larger sum
// of squares means the same bytes concentrated into fewer, fuller pages
// — a dense gradient toward freeing a whole page that the integer
// page-fault bound cannot express (the bound only moves when a page
// empties completely). The layout search's page-refinement phase climbs
// Pack between those plateau jumps; see docs/SEARCH.md.
func (e *PageEngine) Pack(lay *layout.Layout) uint64 {
	pb := uint64(e.cfg.PageBytes)
	per := make([]uint64, (uint64(lay.Total)+pb-1)/pb)
	for ri := range e.inc.sg.regions {
		r := &e.inc.sg.regions[ri]
		if r.weight == 0 || r.words == 0 {
			continue
		}
		// Regions partition the executed bytes (blocks are split, never
		// duplicated), so per-page byte counts need no dedup.
		addr, rem := uint64(lay.InstrAddr(r.f, r.b, r.start)), uint64(r.words)*ir.InstrBytes
		for rem > 0 {
			in := min(pb-addr%pb, rem)
			per[addr/pb] += in
			addr += in
			rem -= in
		}
	}
	var sum uint64
	for _, b := range per {
		sum += b * b
	}
	return sum
}

// Clone returns an independent engine for the same program, weights,
// and geometry, positioned at the receiver's current layout.
func (e *PageEngine) Clone() *PageEngine {
	return &PageEngine{cfg: e.cfg, inc: e.inc.Clone()}
}
