package interp

import (
	"time"

	"impact/internal/obs"
)

// Record adds one execution's aggregate event counts to r and
// refreshes the engine throughput gauge. Callers time the run
// themselves (the engine stays clock-free so executions remain pure
// functions of the seed) and pass the elapsed wall time.
//
// Metrics: counters interp.runs, interp.instrs, interp.branches,
// interp.calls, interp.returns, interp.busy_ns; gauge
// interp.events_per_sec (total execution events over total recorded
// busy time — with parallel runs this is per-worker throughput, not
// machine throughput).
func Record(r *obs.Registry, res Result, elapsed time.Duration) {
	if r == nil {
		return
	}
	r.Counter("interp.runs").Inc()
	r.Counter("interp.instrs").Add(res.Instrs)
	r.Counter("interp.branches").Add(res.Branches)
	r.Counter("interp.calls").Add(res.Calls)
	r.Counter("interp.returns").Add(res.Returns)
	events := r.Counter("interp.events")
	events.Add(res.Instrs + res.Branches + res.Calls + res.Returns)
	busy := r.Counter("interp.busy_ns")
	busy.Add(uint64(elapsed))
	if ns := busy.Value(); ns > 0 {
		r.Gauge("interp.events_per_sec").Set(float64(events.Value()) / (float64(ns) / 1e9))
	}
}
