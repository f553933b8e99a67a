package sweep

import (
	"impact/internal/cache"
	"impact/internal/memtrace"
)

// Plan measures a list of cache organisations in as few trace walks as
// the stack algorithm allows (see the package doc for the rule). A
// caller that streams once feeds the Plan itself; one that runs passes
// on separate workers feeds each of Passes on its own. Either way,
// Stats then returns every organisation's statistics, bit-identical to
// cache.Simulate on the same canonical run stream.
type Plan struct {
	n      int // organisations planned
	passes []*Pass
}

// Pass is one trace walk of a Plan: a stack pass or the broadcast
// replay. It is a memtrace.Sink that takes canonical runs. Its
// simulator state is built on the first run it receives, so a pass run
// on a worker is allocated by that worker.
type Pass struct {
	// at holds the input positions of the organisations served, cfgs
	// those organisations.
	at   []int
	cfgs []cache.Config
	// block and sets are a stack pass's geometry; sets is 0 for the
	// replay.
	block, sets int
	stack       *StackPass
	replay      *cache.SinkSimulator
}

// NewPlan validates every organisation and sorts them into passes:
// one stack pass per (block size, set count) group that pays for
// itself — two or more organisations, or one wider than 8 ways, whose
// way scan a stack pass beats — and one broadcast replay for the rest.
// Stack passes come first, in order of their first organisation.
func NewPlan(cfgs ...cache.Config) (*Plan, error) {
	type geom struct{ block, sets int }
	group := make([]geom, len(cfgs)) // zero: not stack-eligible
	size := make(map[geom]int)
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if eligible(cfg) {
			block, sets := geometry(cfg)
			group[i] = geom{block, sets}
			size[group[i]]++
		}
	}
	pl := &Plan{n: len(cfgs)}
	stacks := make(map[geom]*Pass)
	replay := &Pass{}
	for i, cfg := range cfgs {
		p, g := replay, group[i]
		if g.sets > 0 && (size[g] >= 2 || ways(cfg) > 8) {
			if p = stacks[g]; p == nil {
				p = &Pass{block: g.block, sets: g.sets}
				stacks[g] = p
				pl.passes = append(pl.passes, p)
			}
		}
		p.at = append(p.at, i)
		p.cfgs = append(p.cfgs, cfg)
	}
	if len(replay.at) > 0 {
		pl.passes = append(pl.passes, replay)
	}
	return pl, nil
}

// Passes returns the plan's trace walks.
func (pl *Plan) Passes() []*Pass { return pl.passes }

// Run feeds one canonical run to every pass.
func (pl *Plan) Run(r memtrace.Run) {
	for _, p := range pl.passes {
		p.Run(r)
	}
}

// Stats returns every organisation's statistics in NewPlan's input
// order. Call it once every pass has seen the whole stream; a pass
// that saw no run reports the empty trace.
func (pl *Plan) Stats() []cache.Stats {
	out := make([]cache.Stats, pl.n)
	for _, p := range pl.passes {
		if p.stack == nil && p.replay == nil {
			p.start()
		}
		if p.replay != nil {
			for j, st := range p.replay.Stats() {
				out[p.at[j]] = st
			}
			continue
		}
		for j, i := range p.at {
			out[i] = p.stack.derive(p.cfgs[j])
		}
	}
	return out
}

// Stack reports whether p is a stack pass rather than the replay.
func (p *Pass) Stack() bool { return p.sets > 0 }

// Orgs returns the number of organisations p measures.
func (p *Pass) Orgs() int { return len(p.at) }

// Run feeds one canonical run to the pass, building its simulator on
// the first call.
func (p *Pass) Run(r memtrace.Run) {
	switch {
	case p.stack != nil:
		p.stack.Run(r)
	case p.replay != nil:
		p.replay.Run(r)
	default:
		p.start()
		p.Run(r)
	}
}

// start builds the pass's simulator. Neither constructor can fail:
// NewPlan validated every organisation, and a valid organisation's
// geometry passes checkGeometry.
func (p *Pass) start() {
	if p.Stack() {
		p.stack, _ = NewStackPass(p.block, p.sets)
		return
	}
	p.replay, _ = cache.NewSinkSimulator(p.cfgs...)
}
