// Package profile implements the IMPACT-I execution profiler (paper
// section 3, step 1).
//
// "In our C compiler, a program is represented by a weighted call
// graph. ... Each node of the weighted call graph is represented by a
// weighted control graph." This package collects exactly those
// weights: execution counts for every function, basic block, arc, and
// call site, accumulated over a set of profiling runs (each run is one
// seed, standing in for one input file).
//
// The placement passes in internal/core consume only these measured
// weights — never the behavioural probabilities in the IR — matching
// the paper's profile-driven design.
package profile

import (
	"fmt"
	"sort"
	"time"

	"impact/internal/interp"
	"impact/internal/ir"
	"impact/internal/obs"
)

// FuncWeights holds the weighted control graph of one function.
type FuncWeights struct {
	// Entries counts how many times the function was entered.
	Entries uint64
	// BlockW counts executions per block, indexed by BlockID.
	BlockW []uint64
	// ArcW counts taken arcs, parallel to Block.Out: ArcW[b][k] is the
	// number of times block b left via its k-th outgoing arc.
	ArcW [][]uint64
}

// CallPair identifies a caller/callee edge of the call graph.
type CallPair struct {
	Caller, Callee ir.FuncID
}

// Weights is a weighted call graph plus the weighted control graph of
// every function.
type Weights struct {
	Funcs []FuncWeights
	// Pairs holds call-graph arc weights: executions of calls from
	// Caller to Callee, summed over all call sites.
	Pairs map[CallPair]uint64
	// Sites holds per-call-site execution counts.
	Sites map[ir.CallSite]uint64

	// Aggregate dynamic counts over all profiling runs.
	DynInstrs   uint64
	DynBranches uint64 // taken intra-function transfers (no call/return)
	DynCalls    uint64
	DynReturns  uint64
	Runs        int
	// Capped counts runs that hit the interpreter step budget before
	// completing. A capped run stops mid-block on every frame of its
	// call stack, so exact flow-conservation invariants only hold when
	// Capped == 0.
	Capped int
}

// NewWeights returns zeroed weights shaped for program p.
//
//lint:testapi hand-built weights in the analysis, inline and globallayout tests
func NewWeights(p *ir.Program) *Weights {
	w := &Weights{
		Funcs: make([]FuncWeights, len(p.Funcs)),
		Pairs: make(map[CallPair]uint64),
		Sites: make(map[ir.CallSite]uint64),
	}
	for i, f := range p.Funcs {
		w.Funcs[i].BlockW = make([]uint64, len(f.Blocks))
		w.Funcs[i].ArcW = make([][]uint64, len(f.Blocks))
		for j, b := range f.Blocks {
			if len(b.Out) > 0 {
				w.Funcs[i].ArcW[j] = make([]uint64, len(b.Out))
			}
		}
	}
	return w
}

// BlockWeight returns the execution count of block b in function f.
func (w *Weights) BlockWeight(f ir.FuncID, b ir.BlockID) uint64 {
	return w.Funcs[f].BlockW[b]
}

// ArcWeight returns the traversal count of arc k out of block b.
func (w *Weights) ArcWeight(f ir.FuncID, b ir.BlockID, k int) uint64 {
	return w.Funcs[f].ArcW[b][k]
}

// FuncWeight returns the entry count of function f.
func (w *Weights) FuncWeight(f ir.FuncID) uint64 {
	return w.Funcs[f].Entries
}

// SiteWeight returns the execution count of one call site.
func (w *Weights) SiteWeight(s ir.CallSite) uint64 { return w.Sites[s] }

// PairWeight returns the call-graph arc weight from caller to callee.
func (w *Weights) PairWeight(caller, callee ir.FuncID) uint64 {
	return w.Pairs[CallPair{Caller: caller, Callee: callee}]
}

// SiteCount is a call site together with its measured weight.
type SiteCount struct {
	Site   ir.CallSite
	Callee ir.FuncID
	Count  uint64
}

// SitesByWeight returns all executed call sites of program p sorted by
// descending weight (ties broken by site position for determinism).
func (w *Weights) SitesByWeight(p *ir.Program) []SiteCount {
	out := make([]SiteCount, 0, len(w.Sites))
	//lint:maprange order restored by the sort below
	for s, c := range w.Sites {
		out = append(out, SiteCount{Site: s, Callee: p.Callee(s), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Site.Func != b.Site.Func {
			return a.Site.Func < b.Site.Func
		}
		if a.Site.Block != b.Site.Block {
			return a.Site.Block < b.Site.Block
		}
		return a.Site.Instr < b.Site.Instr
	})
	return out
}

// EffectiveBytes returns the number of code bytes in blocks with
// non-zero profiled weight — the paper's "effective static bytes"
// (Table 5).
func (w *Weights) EffectiveBytes(p *ir.Program) int {
	total := 0
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			if w.Funcs[fi].BlockW[bi] > 0 {
				total += b.Bytes()
			}
		}
	}
	return total
}

// Check verifies that the weights are shaped for program p.
func (w *Weights) Check(p *ir.Program) error {
	if len(w.Funcs) != len(p.Funcs) {
		return fmt.Errorf("profile: weights cover %d funcs, program has %d", len(w.Funcs), len(p.Funcs))
	}
	for i, f := range p.Funcs {
		if len(w.Funcs[i].BlockW) != len(f.Blocks) {
			return fmt.Errorf("profile: func %q: weights cover %d blocks, function has %d",
				f.Name, len(w.Funcs[i].BlockW), len(f.Blocks))
		}
		for j, b := range f.Blocks {
			if len(w.Funcs[i].ArcW[j]) != len(b.Out) {
				return fmt.Errorf("profile: func %q block %d: weights cover %d arcs, block has %d",
					f.Name, j, len(w.Funcs[i].ArcW[j]), len(b.Out))
			}
		}
	}
	return nil
}

// Config controls a profiling session.
type Config struct {
	// Seeds lists the profiling inputs; each seed is one run.
	Seeds []uint64
	// Interp configures each run (step budget, jitter).
	Interp interp.Config
	// Obs, when non-nil, receives per-run execution metrics
	// (interp.* counters and throughput; see interp.Record).
	Obs *obs.Registry
}

// Profile runs program p once per seed and returns the merged weights
// plus the per-run execution results. The runs count into the engine's
// dense block, arc and call counters — the probe calls the IMPACT-I
// profiler inserts into the instrumented program — and the session
// folds them into the weights once, after its last run.
func Profile(p *ir.Program, cfg Config) (*Weights, []interp.Result, error) {
	eng := interp.NewEngine(p)
	counts := eng.NewCounts()
	results, err := session(cfg, func(seed uint64) (interp.Result, error) {
		return eng.Count(seed, cfg.Interp, counts)
	})
	if err != nil {
		return nil, nil, err
	}
	return Weigh(p, counts, results), results, nil
}

// ProfileContexts is Profile counting every run per calling context
// under limit (interp.Contexts): it returns the weights and results
// Profile returns, and the context counts they were summed from.
func ProfileContexts(p *ir.Program, cfg Config, limit interp.ContextLimit) (*Weights, []interp.Result, *interp.Contexts, error) {
	x := interp.NewEngine(p).NewContexts(limit)
	results, err := session(cfg, func(seed uint64) (interp.Result, error) {
		return x.Count(seed, cfg.Interp)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return Weigh(p, x.Sum(), results), results, x, nil
}

// session runs count once per seed, recording each run's metrics.
func session(cfg Config, count func(seed uint64) (interp.Result, error)) ([]interp.Result, error) {
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("profile: no seeds given")
	}
	results := make([]interp.Result, 0, len(cfg.Seeds))
	for _, seed := range cfg.Seeds {
		//lint:walltime per-run timing metric only; weights are clock-free
		start := time.Now()
		res, err := count(seed)
		if err != nil {
			return nil, fmt.Errorf("profile: seed %d: %w", seed, err)
		}
		interp.Record(cfg.Obs, res, time.Since(start))
		results = append(results, res)
	}
	return results, nil
}

// Weigh returns the weights of program p for a session whose runs
// returned results and counted c: what Profile returns when its runs
// count c.
func Weigh(p *ir.Program, c *interp.Counts, results []interp.Result) *Weights {
	w := NewWeights(p)
	for _, res := range results {
		w.DynInstrs += res.Instrs
		w.DynBranches += res.Branches
		w.DynCalls += res.Calls
		w.DynReturns += res.Returns
		if !res.Completed {
			w.Capped++
		}
	}
	w.Runs = len(results)
	w.fold(p, c)
	return w
}

// fold adds a session's counts to w. Blocks and arcs add up in
// program order; every executed call site adds to its site, its
// caller/callee pair and its callee's entry count. The entry function
// is entered once per run without a call.
func (w *Weights) fold(p *ir.Program, c *interp.Counts) {
	var bi, ai, ci int
	for f, fn := range p.Funcs {
		fw := &w.Funcs[f]
		for b, blk := range fn.Blocks {
			fw.BlockW[b] += c.Blocks[bi]
			bi++
			for k := range blk.Out {
				fw.ArcW[b][k] += c.Arcs[ai]
				ai++
			}
			for j, in := range blk.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				if n := c.Calls[ci]; n > 0 {
					w.Sites[ir.CallSite{Func: ir.FuncID(f), Block: ir.BlockID(b), Instr: int32(j)}] += n
					w.Pairs[CallPair{Caller: ir.FuncID(f), Callee: in.Callee}] += n
					w.Funcs[in.Callee].Entries += n
				}
				ci++
			}
		}
	}
	w.Funcs[p.Entry].Entries += uint64(w.Runs)
}
