package mitos

import (
	"io"

	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
)

// Observer collects engine-wide metrics (and optionally a timeline trace)
// for one or more executions. Attach it via Config.Observer; read results
// with Report or export the timeline with WriteTrace. A nil *Observer
// disables all instrumentation — the engine then pays one pointer check
// per recording site.
type Observer = obs.Observer

// RunReport is a point-in-time snapshot of every metric an execution
// recorded: counters, gauges, and duration histograms keyed by
// (machine, operator, metric). Helper methods (Total, TotalFor,
// PerMachine, PerOp, Counter, Gauge) aggregate across keys; String renders
// an aligned table.
//
// Useful metric names include per-operator "elements_in"/"elements_out",
// "bags_out", "mailbox_hwm", "batches_parked" (batches that waited in
// their link until the operator could use them), per-machine
// "broadcasts" (control-flow manager path extensions),
// per-condition-operator "decisions", "join_builds"/"join_build_reuses"
// (hoisting), and driver-side "barriers", "jobs_launched", and
// "ctrl_messages".
type RunReport = obs.Snapshot

// NewObserver returns an observer that collects metrics only.
func NewObserver() *Observer { return obs.New() }

// NewTracingObserver returns an observer that additionally records a
// timeline of bag lifecycles, control-flow broadcasts, barriers, job
// launches, and cross-machine batches. Export it with WriteTrace and load
// the file in chrome://tracing or Perfetto.
func NewTracingObserver() *Observer { return obs.NewTracing() }

// NewLineageObserver returns an observer that collects metrics and
// additionally records per-bag lineage: provenance (input bags, producing
// operator, execution-path position), open/close timestamps, element and
// byte counts, and per-consumer delivery times. Lineage enables
// Result.CriticalPath and the introspection server's /lineage and
// /criticalpath endpoints. Chain EnableLineage onto NewTracingObserver to
// combine lineage with a timeline trace.
func NewLineageObserver() *Observer { return obs.New().EnableLineage() }

// IntrospectionServer is a live introspection HTTP server. It serves
// /metrics (Prometheus text exposition of every engine metric), /jobs and
// /jobs/{id} (the live dataflow graph with per-edge queue depths, mailbox
// high-water marks, transport backlogs, and per-instance bag progress),
// /jobs/{id}/dot, /lineage, /lineage/{bagid}, /criticalpath, and
// /debug/pprof. Start one with ServeIntrospection and attach it to runs
// via Config.HTTP.
type IntrospectionServer = httpserve.Server

// ServeIntrospection starts a live introspection server listening on addr
// (host:port; port 0 picks an ephemeral port, see Addr) exposing o's
// metrics and lineage. Executions register themselves when run with
// Config.HTTP set to the returned server. Close stops it.
func ServeIntrospection(addr string, o *Observer) (*IntrospectionServer, error) {
	return httpserve.Serve(addr, o)
}

// Report snapshots all metrics recorded so far.
func Report(o *Observer) *RunReport { return o.Snapshot() }

// WriteTrace writes the observer's timeline in the Chrome trace_event
// JSON format. Valid (empty) output is produced even when o was not
// created by NewTracingObserver.
func WriteTrace(o *Observer, w io.Writer) error { return o.Trc().WriteJSON(w) }
