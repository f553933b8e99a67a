package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Schema identifies the metrics JSON layout; bump on breaking change.
const Schema = "impact.metrics/v2"

// Snapshot is a point-in-time copy of a registry's contents. Field
// maps serialise with sorted keys (encoding/json sorts map keys), so
// the JSON form is deterministic for a given set of values.
type Snapshot struct {
	Schema   string               `json:"schema"`
	Counters map[string]uint64    `json:"counters"`
	Gauges   map[string]float64   `json:"gauges"`
	Spans    map[string]SpanStats `json:"spans"`
}

// Snapshot copies the registry's current values. Safe to call while
// other goroutines keep recording. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:   Schema,
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
		Spans:    map[string]SpanStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	//lint:maprange map-to-map copy
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	//lint:maprange map-to-map copy
	for k, v := range r.gauges {
		gauges[k] = v
	}
	spans := make(map[string]*spanNode, len(r.spans))
	//lint:maprange map-to-map copy
	for k, v := range r.spans {
		spans[k] = v
	}
	r.mu.Unlock()

	//lint:maprange map-to-map copy
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	//lint:maprange map-to-map copy
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	//lint:maprange map-to-map copy
	for k, v := range spans {
		s.Spans[k] = v.stats()
	}
	return s
}

// WriteJSON writes the registry contents as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText writes a human-readable report: the span tree indented by
// depth, then counters and gauges, each sorted by name.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder

	if len(s.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, path := range sortedKeys(s.Spans) {
			st := s.Spans[path]
			depth := strings.Count(path, "/")
			name := path
			if i := strings.LastIndex(path, "/"); i >= 0 {
				name = path[i+1:]
			}
			fmt.Fprintf(&b, "  %s%-*s %10v total  %8v mean  ×%d\n",
				strings.Repeat("  ", depth), 24-2*depth, name,
				time.Duration(st.TotalNS).Round(time.Microsecond),
				time.Duration(st.MeanNS).Round(time.Microsecond), st.Count)
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %g\n", k, s.Gauges[k])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:maprange order restored by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
