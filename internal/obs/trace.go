package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the flight-recorder tracing layer: timestamped begin/end
// span events with lane (goroutine/worker) attribution and key/value
// attributes, captured in one bounded ring buffer and exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// The design constraints mirror the rest of obs:
//
//   - Zero cost when disabled: no tracer attached means span code pays
//     one atomic pointer load at span start and nothing at all on the
//     hot paths below spans (the simulator's per-word loop carries no
//     tracing hooks whatsoever — see internal/cache/alloc_test.go).
//   - One lock when enabled: emitting an event writes one ring slot
//     under the tracer's mutex, which also guards lane registration,
//     so Events and WriteChromeTrace may run while spans still end.
//     Events are emitted per span, never per simulated word.
//   - Bounded memory: the ring has a fixed capacity; once it wraps,
//     the oldest events of any lane are overwritten (flight-recorder
//     semantics) and Dropped reports how many were lost.
//
// Events carry a Lane — a timeline row named after the goroutine or
// worker that produced the event ("main", "sweep-worker-3",
// "prepare-worker-0"). Events sorts them by lane, then start time, so
// each lane's timestamps are monotonic in every export.

// TraceSchema identifies the Chrome trace-event JSON flavour emitted
// by WriteChromeTrace (the "JSON Array Format" of the Trace Event
// spec, which Perfetto and chrome://tracing both load).
const TraceSchema = "impact.trace/v1"

// DefaultTraceCapacity is the event capacity of NewTracer(0).
const DefaultTraceCapacity = 1 << 16

// Lane identifies one timeline row. Lane 0 is always "main". The zero
// value is therefore a valid lane everywhere, which is what nil-safe
// call sites produce.
type Lane int32

// Attr is one key/value event attribute.
type Attr struct {
	Key string
	Val string
}

// Int64Attr renders an integer attribute.
func Int64Attr(key string, v int64) Attr { return Attr{Key: key, Val: fmt.Sprintf("%d", v)} }

// Event is one recorded trace event. Start and Dur are nanoseconds on
// the tracer's clock (zero at tracer creation).
type Event struct {
	// Name is the event name; for span events this is the span path.
	Name string
	// Lane is the timeline row the event belongs to.
	Lane Lane
	// Phase is 'X' for a complete (begin/end) span event and 'i' for
	// an instant event.
	Phase byte
	// Start is the event begin time in nanoseconds since tracer start.
	Start int64
	// Dur is the event duration in nanoseconds (0 for instants).
	Dur int64
	// Attrs are the event's key/value attributes, in emission order.
	Attrs []Attr
}

// Tracer records events into one bounded ring. A nil *Tracer is
// valid everywhere and records nothing. Tracers are safe for
// concurrent use.
type Tracer struct {
	clock func() int64 // nanoseconds since tracer start; monotonic

	// mu guards the lanes and the ring: ring[i%len(ring)] holds the
	// i-th event emitted, and emitted counts every event ever emitted.
	mu      sync.Mutex
	lanes   []string
	ring    []Event
	emitted uint64
}

// NewTracer returns a tracer with the given event capacity
// (DefaultTraceCapacity when capacity <= 0), timestamping events with
// the real monotonic clock.
func NewTracer(capacity int) *Tracer {
	//lint:walltime the tracer's whole job is wall-clock timestamps
	base := time.Now()
	return newTracerWithClock(capacity, func() int64 { return int64(time.Since(base)) })
}

// newTracerWithClock is NewTracer with an injected clock returning
// nanoseconds since tracer start. Tests use a fake stepping clock to
// make exported traces fully deterministic.
func newTracerWithClock(capacity int, clock func() int64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clock: clock, lanes: []string{"main"}, ring: make([]Event, capacity)}
}

// now returns the current tracer timestamp (0 on a nil tracer).
func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Lane returns the lane with the given name, registering it on first
// use. Repeated calls with one name share one lane, so a worker pool
// re-created per batch keeps stable timeline rows. Returns 0 ("main")
// on a nil tracer.
func (t *Tracer) Lane(name string) Lane {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.lanes {
		if n == name {
			return Lane(i)
		}
	}
	t.lanes = append(t.lanes, name)
	return Lane(len(t.lanes) - 1)
}

// LaneNames returns the registered lane names indexed by Lane.
func (t *Tracer) LaneNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.lanes))
	copy(out, t.lanes)
	return out
}

// emit records one event, overwriting the oldest once the ring is
// full.
func (t *Tracer) emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.emitted%uint64(len(t.ring))] = ev
	t.emitted++
	t.mu.Unlock()
}

// Emit records an instant event on the given lane.
func (t *Tracer) Emit(lane Lane, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Lane: lane, Phase: 'i', Start: t.now(), Attrs: attrs})
}

// Dropped returns the number of events lost to ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted - min(t.emitted, uint64(len(t.ring)))
}

// Events snapshots every recorded event, sorted deterministically: by
// lane, then start time, then duration (longer first, so enclosing
// spans precede their children), then name. It may run while spans
// still end; events emitted after the snapshot are not in it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	c := uint64(len(t.ring))
	lo := t.emitted - min(t.emitted, c)
	out := make([]Event, 0, t.emitted-lo)
	for i := lo; i < t.emitted; i++ {
		out = append(out, t.ring[i%c])
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Lane != y.Lane {
			return x.Lane < y.Lane
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Dur != y.Dur {
			return x.Dur > y.Dur
		}
		return x.Name < y.Name
	})
	return out
}

// jsonString marshals s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// writeArgs renders attrs as a Chrome trace "args" object, in
// attribute order.
func writeArgs(b *strings.Builder, attrs []Attr) {
	b.WriteString("{")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(jsonString(a.Key))
		b.WriteString(":")
		b.WriteString(jsonString(a.Val))
	}
	b.WriteString("}")
}

// WriteChromeTrace writes every recorded event as Chrome trace-event
// JSON (array format): one thread_name metadata record per lane, then
// one "X" (complete) record per span event and one "i" (instant)
// record per instant event. Timestamps are microseconds with
// nanosecond precision. The output is deterministic for a given event
// set: events are ordered as Events orders them. Load the file in
// https://ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var b strings.Builder
	b.WriteString("[\n")
	fmt.Fprintf(&b, `{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"impact","schema":%s}}`,
		jsonString(TraceSchema))
	for i, name := range t.LaneNames() {
		fmt.Fprintf(&b, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
			i, jsonString(name))
	}
	for _, ev := range t.Events() {
		b.WriteString(",\n")
		fmt.Fprintf(&b, `{"ph":"%c","pid":1,"tid":%d,"cat":"impact","name":%s,"ts":%d.%03d`,
			ev.Phase, ev.Lane, jsonString(ev.Name), ev.Start/1000, ev.Start%1000)
		if ev.Phase == 'X' {
			fmt.Fprintf(&b, `,"dur":%d.%03d`, ev.Dur/1000, ev.Dur%1000)
		} else {
			b.WriteString(`,"s":"t"`)
		}
		if len(ev.Attrs) > 0 {
			b.WriteString(`,"args":`)
			writeArgs(&b, ev.Attrs)
		}
		b.WriteString("}")
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
