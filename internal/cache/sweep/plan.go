package sweep

import (
	"impact/internal/cache"
	"impact/internal/memtrace"
)

// Plan measures a list of cache organisations in as few trace walks as
// the stack algorithm and the forest allow (see the package doc for the
// rule). A caller that streams once feeds the Plan itself; one that
// runs passes on separate workers feeds each of Passes on its own.
// Either way, Stats then returns every organisation's statistics,
// bit-identical to cache.Simulate on the same canonical run stream.
type Plan struct {
	n      int // organisations planned
	passes []*Pass
}

// passKind is how a Pass measures its organisations.
type passKind uint8

const (
	stackKind passKind = iota
	forestKind
	replayKind
)

var kindNames = [...]string{stackKind: "stack", forestKind: "forest", replayKind: "replay"}

// Pass is one trace walk of a Plan: a stack pass, the direct-mapped
// forest or the broadcast replay. It is a memtrace.Sink that takes
// canonical runs. Its simulator state is built on the first run it
// receives, so a pass run on a worker is allocated by that worker.
type Pass struct {
	kind passKind
	// at holds the input positions of the organisations served, cfgs
	// those organisations.
	at   []int
	cfgs []cache.Config
	// block and sets are a stack pass's geometry.
	block, sets int
	// sink is the simulator once built: stack, forest or replay.
	sink   memtrace.Sink
	stack  *StackPass
	forest *cache.Forest
	replay *cache.SinkSimulator
}

// NewPlan validates every organisation and sorts them into passes:
// one stack pass per (block size, set count) group that pays for
// itself — two or more organisations, or one wider than 8 ways, whose
// way scan a stack pass beats — then one forest for the direct-mapped
// whole-block organisations left over, then one broadcast replay for
// the rest. Stack passes come first, in order of their first
// organisation.
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
	forest := &Pass{kind: forestKind}
	replay := &Pass{kind: replayKind}
	for i, cfg := range cfgs {
		p, g := replay, group[i]
		switch {
		case g.sets > 0 && (size[g] >= 2 || ways(cfg) > 8):
			if p = stacks[g]; p == nil {
				p = &Pass{kind: stackKind, block: g.block, sets: g.sets}
				stacks[g] = p
				pl.passes = append(pl.passes, p)
			}
		case g.sets > 0 && ways(cfg) == 1:
			p = forest
		}
		p.at = append(p.at, i)
		p.cfgs = append(p.cfgs, cfg)
	}
	for _, p := range []*Pass{forest, replay} {
		if len(p.at) > 0 {
			pl.passes = append(pl.passes, p)
		}
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
		if p.sink == nil {
			p.start()
		}
		var stats []cache.Stats
		switch p.kind {
		case stackKind:
			for j, i := range p.at {
				out[i] = p.stack.derive(p.cfgs[j])
			}
			continue
		case forestKind:
			stats = p.forest.Stats()
		default:
			stats = p.replay.Stats()
		}
		for j, st := range stats {
			out[p.at[j]] = st
		}
	}
	return out
}

// Stack reports whether p is a stack pass.
func (p *Pass) Stack() bool { return p.kind == stackKind }

// Kind names how p measures: "stack", "forest" or "replay".
func (p *Pass) Kind() string { return kindNames[p.kind] }

// Orgs returns the number of organisations p measures.
func (p *Pass) Orgs() int { return len(p.at) }

// Run feeds one canonical run to the pass, building its simulator on
// the first call.
func (p *Pass) Run(r memtrace.Run) {
	if p.sink == nil {
		p.start()
	}
	p.sink.Run(r)
}

// start builds the pass's simulator. No constructor can fail: NewPlan
// validated every organisation, a valid organisation's geometry passes
// checkGeometry, and the forest holds only direct-mapped whole-block
// organisations without prefetch or timing.
func (p *Pass) start() {
	switch p.kind {
	case stackKind:
		p.stack, _ = NewStackPass(p.block, p.sets)
		p.sink = p.stack
	case forestKind:
		p.forest, _ = cache.NewForest(p.cfgs...)
		p.sink = p.forest
	default:
		p.replay, _ = cache.NewSinkSimulator(p.cfgs...)
		p.sink = p.replay
	}
}
