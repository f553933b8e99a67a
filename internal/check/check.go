// Package check is the pipeline verifier: a composable static-analysis
// framework over the IR with per-stage semantic-equivalence checks.
//
// The paper's central claim is that every placement step — inline
// expansion, trace selection, function body layout, global layout —
// only *moves* code; it never changes what executes (Hwu & Chang §3;
// the same invariant Pettis & Hansen rely on for link-time
// reordering). This package turns that claim into machine-checked
// invariants so every future optimisation can prove it preserved
// semantics.
//
// Each Analyzer is a named pass over a Unit — a snapshot of pipeline
// state: the program, its measured profile, and (for stage checks) the
// before/after pair plus the stage's block/function mappings. Analyzers
// emit structured Diagnostics with a severity, a location
// (func/block/instr), and a human-readable explanation; Run collects
// them into a Report and counts per-analyzer results in obs.
//
// internal/core threads the verifier through Optimize behind
// Config.Check (Off / Warn / Strict); internal/experiments runs the
// search stage on every searched layout and the analysis and paging
// stages on every static analysis it builds, under the same modes.
// `impact check` and `icexp -check` expose it on the command line.
// docs/VERIFICATION.md documents every analyzer, its invariant, and
// the paper section that justifies it.
package check

import (
	"fmt"
	"sort"
	"strings"

	"impact/internal/analysis"
	"impact/internal/core/funclayout"
	"impact/internal/core/globallayout"
	"impact/internal/core/inline"
	"impact/internal/core/traceselect"
	"impact/internal/ir"
	"impact/internal/layout"
	"impact/internal/obs"
	"impact/internal/profile"
)

// Mode selects how the pipeline responds to diagnostics.
type Mode int

const (
	// Off disables verification entirely.
	Off Mode = iota
	// Warn runs every applicable analyzer and collects diagnostics
	// (core.Result.Checks) without failing the pipeline.
	Warn
	// Strict is Warn plus: any error-severity diagnostic fails the
	// pipeline run.
	Strict
)

// ParseMode parses "off", "warn", or "strict".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "warn":
		return Warn, nil
	case "strict":
		return Strict, nil
	}
	return Off, fmt.Errorf("check: unknown mode %q (want off, warn, or strict)", s)
}

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Warn:
		return "warn"
	case Strict:
		return "strict"
	}
	return "off"
}

// Severity classifies a diagnostic.
type Severity int

const (
	// Info marks an observation that needs no action.
	Info Severity = iota
	// Warning marks a suspicious but not semantics-breaking finding.
	Warning
	// Error marks a broken invariant: the stage did not preserve
	// semantics (or the input was malformed).
	Error
)

// String returns "info", "warning", or "error".
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// Loc pinpoints a diagnostic inside a program. Fields hold NoFunc /
// NoBlock / -1 when the diagnostic is coarser than that level.
type Loc struct {
	Func  ir.FuncID
	Block ir.BlockID
	Instr int32
}

// progLoc returns the program-level (fieldless) location.
func progLoc() Loc { return Loc{Func: ir.NoFunc, Block: ir.NoBlock, Instr: -1} }

// funcLoc returns a function-level location.
func funcLoc(f ir.FuncID) Loc { return Loc{Func: f, Block: ir.NoBlock, Instr: -1} }

// blockLoc returns a block-level location.
func blockLoc(f ir.FuncID, b ir.BlockID) Loc { return Loc{Func: f, Block: b, Instr: -1} }

// String renders the location compactly ("func 3/block 7/instr 2").
func (l Loc) String() string {
	if l.Func == ir.NoFunc {
		return "program"
	}
	s := fmt.Sprintf("func %d", l.Func)
	if l.Block != ir.NoBlock {
		s += fmt.Sprintf("/block %d", l.Block)
	}
	if l.Instr >= 0 {
		s += fmt.Sprintf("/instr %d", l.Instr)
	}
	return s
}

// Diagnostic is one structured finding of an analyzer.
type Diagnostic struct {
	// Analyzer is the emitting analyzer's name.
	Analyzer string
	// Stage is the pipeline stage that was being checked.
	Stage string
	// Severity classifies the finding.
	Severity Severity
	// Loc locates the finding in the program.
	Loc Loc
	// FuncName is the name of Loc.Func when known ("" otherwise).
	FuncName string
	// Message is the human-readable explanation.
	Message string
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	loc := d.Loc.String()
	if d.FuncName != "" {
		loc = fmt.Sprintf("%s (%s)", loc, d.FuncName)
	}
	return fmt.Sprintf("%s [%s/%s] %s: %s", d.Severity, d.Stage, d.Analyzer, loc, d.Message)
}

// Report is the outcome of running a set of analyzers.
type Report struct {
	// Diags holds every diagnostic, sorted deterministically.
	Diags []Diagnostic
	// Runs counts analyzer executions that contributed to the report.
	Runs int
}

// Merge appends o's diagnostics and run counts into r.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Diags = append(r.Diags, o.Diags...)
	r.Runs += o.Runs
}

// Errors returns the number of error-severity diagnostics.
func (r *Report) Errors() int { return r.count(Error) }

// Warnings returns the number of warning-severity diagnostics.
func (r *Report) Warnings() int { return r.count(Warning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Err returns nil when the report holds no error-severity diagnostics,
// and an error summarising them otherwise.
func (r *Report) Err() error {
	n := r.Errors()
	if n == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", n)
	for _, d := range r.Diags {
		if d.Severity == Error {
			b.WriteString("\n  ")
			b.WriteString(d.String())
		}
	}
	return fmt.Errorf("%s", b.String())
}

// String renders every diagnostic, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Unit is the pipeline state offered for analysis. Prog is required;
// every other field is optional, and each analyzer declares which
// fields it needs — Run silently skips analyzers whose inputs are
// absent, which is what makes the framework composable: one Unit type
// serves program-level checks and every stage-equivalence check.
//
// Contract for the dynamic equivalence checks: Weights and
// BeforeWeights must be measured with the same profiling inputs
// (seeds and interp configuration), as core.Optimize does.
type Unit struct {
	// Stage names the pipeline stage being checked (Stage* constants).
	Stage string
	// Prog is the program as of this stage.
	Prog *ir.Program
	// Weights is Prog's measured profile.
	Weights *profile.Weights

	// Before / BeforeWeights are the pre-stage program and profile
	// (inline equivalence).
	Before        *ir.Program
	BeforeWeights *profile.Weights
	// Inline is the inline expansion report with its site mappings.
	Inline *inline.Report

	// Traces holds per-function trace selections, indexed by FuncID.
	Traces []traceselect.Result
	// MinProb is the trace-selection threshold used.
	MinProb float64

	// Orders holds per-function body layouts, indexed by FuncID.
	Orders []funclayout.Order
	// Global is the function placement order.
	Global *globallayout.Order
	// Layout is the composed address map.
	Layout *layout.Layout
	// EffectiveBytes is the total size of all effective regions.
	EffectiveBytes int

	// TraceLayout reports whether real trace selection/layout ran
	// (false for the natural fallbacks, which relax trace-shape and
	// cold-sinking invariants).
	TraceLayout bool
	// SplitCold reports whether the effective/non-executed split ran.
	SplitCold bool

	// Analysis is the static cache-behavior analysis of Layout
	// (bounds consistency).
	Analysis *analysis.Result

	// Pages is the static page-level analysis of Layout (page-fault
	// bound consistency).
	Pages *analysis.PageResult
}

// funcName resolves a FuncID to its name for diagnostics.
func (u *Unit) funcName(f ir.FuncID) string {
	if u.Prog == nil || f == ir.NoFunc || int(f) >= len(u.Prog.Funcs) {
		return ""
	}
	return u.Prog.Funcs[f].Name
}

// Stage names: core.Optimize checks input through layout, and
// internal/experiments checks search, analysis and paging where it
// builds those results. ForStage maps them to the analyzers that can
// run there.
const (
	// StageInput checks the profiled input program.
	StageInput = "input"
	// StageInline checks the inline-expanded program against its input.
	StageInline = "inline"
	// StageTrace checks the trace selection.
	StageTrace = "traceselect"
	// StageLayout checks the composed function and global layouts.
	StageLayout = "layout"
	// StageSearch re-checks the layout invariants after the
	// conflict-driven search replaces the global order: every emitted
	// order must satisfy exactly what the greedy order satisfied.
	StageSearch = "search"
	// StageAnalysis checks a static cache-behavior analysis of a
	// layout (experiments.Prepared.Analyze).
	StageAnalysis = "analysis"
	// StagePaging checks a static page-level analysis of a layout
	// (experiments.Prepared.AnalyzePages).
	StagePaging = "paging"
)

// Analyzer is one named pass over a Unit.
type Analyzer struct {
	// Name identifies the analyzer ("cfg", "weightflow", ...).
	Name string
	// Doc is a one-line description of the invariant checked.
	Doc string

	applies func(*Unit) bool
	run     func(*Unit, *reporter)
}

// Applies reports whether u carries the inputs this analyzer needs.
func (a *Analyzer) Applies(u *Unit) bool { return u.Prog != nil && a.applies(u) }

// All returns every analyzer in deterministic order.
//
//lint:testapi FuzzMutations (fuzz_test.go, package check_test) runs every analyzer
func All() []*Analyzer {
	return []*Analyzer{
		cfgAnalyzer(),
		reachAnalyzer(),
		weightFlowAnalyzer(),
		inlineAnalyzer(),
		tracesAnalyzer(),
		funcLayoutAnalyzer(),
		globalLayoutAnalyzer(),
		boundsAnalyzer(),
		pageBoundsAnalyzer(),
	}
}

// byName returns the named analyzer, or nil.
func byName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ForStage returns the analyzers that run after the given stage:
// core.Optimize's stages, the experiments' search checks, and the
// bounds checks of every analysis the experiments build. Program-level
// analyzers rerun after inline expansion (the one stage that rewrites
// the IR); stage-equivalence analyzers run once, where their mappings
// become available.
func ForStage(stage string) []*Analyzer {
	switch stage {
	case StageInput:
		return pick("cfg", "reach", "weightflow")
	case StageInline:
		return pick("cfg", "reach", "weightflow", "inline")
	case StageTrace:
		return pick("traces")
	case StageLayout:
		return pick("funclayout", "globallayout")
	case StageSearch:
		return pick("funclayout", "globallayout")
	case StageAnalysis:
		return pick("bounds")
	case StagePaging:
		return pick("pagebounds")
	}
	return nil
}

func pick(names ...string) []*Analyzer {
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		if a := byName(n); a != nil {
			out = append(out, a)
		}
	}
	return out
}

// Run executes every applicable analyzer on u, counting runs and
// per-severity diagnostics in reg (nil-safe), and returns the sorted
// report.
func Run(u *Unit, analyzers []*Analyzer, reg *obs.Registry) *Report {
	rep := &Report{}
	reg.Counter("check.units").Inc()
	for _, a := range analyzers {
		if !a.Applies(u) {
			continue
		}
		rep.Runs++
		reg.Counter("check." + a.Name + ".runs").Inc()
		a.run(u, &reporter{u: u, a: a, rep: rep, reg: reg})
	}
	sort.SliceStable(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Loc.Func != b.Loc.Func {
			return a.Loc.Func < b.Loc.Func
		}
		if a.Loc.Block != b.Loc.Block {
			return a.Loc.Block < b.Loc.Block
		}
		if a.Loc.Instr != b.Loc.Instr {
			return a.Loc.Instr < b.Loc.Instr
		}
		return a.Message < b.Message
	})
	return rep
}

// reporter accumulates one analyzer's diagnostics into the shared
// report, resolving locations and feeding obs counters.
type reporter struct {
	u   *Unit
	a   *Analyzer
	rep *Report
	reg *obs.Registry
}

func (r *reporter) add(sev Severity, loc Loc, format string, args ...any) {
	r.rep.Diags = append(r.rep.Diags, Diagnostic{
		Analyzer: r.a.Name,
		Stage:    r.u.Stage,
		Severity: sev,
		Loc:      loc,
		FuncName: r.u.funcName(loc.Func),
		Message:  fmt.Sprintf(format, args...),
	})
	r.reg.Counter("check." + r.a.Name + "." + sev.String() + "s").Inc()
}

func (r *reporter) errorf(loc Loc, format string, args ...any) {
	r.add(Error, loc, format, args...)
}

func (r *reporter) warnf(loc Loc, format string, args ...any) {
	r.add(Warning, loc, format, args...)
}

// skip records (in obs only, not as a diagnostic) that the analyzer
// declined part of its checks — e.g. flow conservation on a profile
// with capped runs, where the equalities legitimately do not hold.
func (r *reporter) skip() {
	r.reg.Counter("check." + r.a.Name + ".skips").Inc()
}
