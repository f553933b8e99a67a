// Package obs provides the reproduction's observability primitives:
// lock-free counters and gauges and hierarchical stage spans, all
// collected in a Registry and exportable as human-readable text or
// deterministic machine-readable JSON, plus a Tracer that records each
// span as a timeline event.
//
// The design constraints come from where the instruments sit. The
// cache simulator and the execution engine are the measurement
// substrate of the whole reproduction — the paper's methodology is
// replaying full execution traces — so instrumentation must cost
// nothing there when disabled and almost nothing when enabled:
//
//   - Every method is nil-safe. A nil *Registry hands out nil
//     *Counter/*Gauge/*Span handles, and every operation on a nil
//     handle is a single branch — the disabled configuration compiles
//     down to no-ops, so library code can instrument unconditionally.
//   - Handle operations (Counter.Add, Gauge.Set, Span.End) are
//     lock-free atomics and never allocate. Only registration
//     (Registry.Counter etc.) takes a lock; hot paths resolve their
//     handles once, up front. With a tracer attached, Span.End also
//     takes the tracer's lock to record its timeline event.
//   - Spans with the same path merge: ten goroutines each running the
//     pipeline produce one "pipeline/inline" node accumulating ten
//     durations, which is what per-stage accounting wants.
//
// Conventions: metric names are dot-separated lowercase
// ("cache.misses", "prepare.worker_utilization"); span paths are
// slash-separated stage names ("pipeline/traceselect"). See
// docs/OBSERVABILITY.md for the full name inventory and JSON schema.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free instantaneous float64 value (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (zero for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is valid everywhere and disables
// collection.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	spans    map[string]*spanNode

	// tracer, when non-nil, receives a timeline event from every span
	// End and Emit call (see trace.go). Detached by default.
	tracer atomic.Pointer[Tracer]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		spans:    make(map[string]*spanNode),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op handle) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a valid no-op handle) when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// AttachTracer routes timeline events from every span started after
// this call to t. Pass nil to detach. No-op on a nil registry.
func (r *Registry) AttachTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.tracer.Store(t)
}

// Tracer returns the attached tracer (nil when none, or when r is
// nil — and a nil *Tracer is itself a valid no-op).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// NewLane registers (or finds) a named timeline lane on the attached
// tracer. Returns the main lane when r is nil or no tracer is
// attached, so call sites need no guards.
func (r *Registry) NewLane(name string) Lane {
	return r.Tracer().Lane(name)
}

// Emit records an instant timeline event on the given lane. No-op
// without an attached tracer.
func (r *Registry) Emit(lane Lane, name string, attrs ...Attr) {
	r.Tracer().Emit(lane, name, attrs...)
}

// spanNode returns the accumulation node for a span path.
func (r *Registry) spanNode(path string) *spanNode {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.spans[path]
	if !ok {
		n = &spanNode{}
		r.spans[path] = n
	}
	return n
}
