// Package httpserve is the live introspection HTTP server: a window into a
// running (or finished) Mitos execution built from the observability
// subsystem alone. It serves
//
//	/metrics              Prometheus text exposition of every obs instrument
//	/jobs                 registered executions (id, name, state)
//	/jobs/{id}            live dataflow graph: per-edge queue depths,
//	                      mailbox depth/HWM, transport egress backlogs,
//	                      per-instance bag progress
//	/jobs/{id}/dot        the plan's dot rendering annotated with live counters
//	/lineage              all tracked bag identifiers
//	/lineage/{bagid}      one bag's lineage record ("op@pos")
//	/criticalpath         critical-path analysis of the tracked lineage
//	/debug/pprof/...      net/http/pprof
//
// The package depends only on obs and lineage (plus net/http): the engine
// registers executions through the JobView interface, so httpserve never
// imports core or dataflow and every layer of the engine can import it.
package httpserve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/lineage"
)

// JobView is the engine's adapter for one registered execution. Status and
// Dot are called from HTTP handler goroutines while the job runs, so
// implementations must be concurrency-safe.
type JobView interface {
	Name() string
	Status() *JobStatus
	Dot() string
}

// JobStatus is the /jobs/{id} payload.
type JobStatus struct {
	ID      int            `json:"id"`
	Name    string         `json:"name"`
	State   string         `json:"state"` // running | done | failed
	Error   string         `json:"error,omitempty"`
	Steps   int64          `json:"steps"` // execution-path positions broadcast so far
	Elapsed float64        `json:"elapsed_s"`
	Totals  Totals         `json:"totals"`
	Ops     []OpStatus     `json:"ops"`
	Egress  []EgressStatus `json:"egress,omitempty"`
	// Workers is the per-worker live telemetry of a multi-process (TCP
	// cluster) execution, built from the snapshots the workers ship to the
	// coordinator; absent on single-process runs.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker process's live telemetry in a clustered
// execution: queue state, data-plane link counters, and the telemetry
// pipeline's own drop accounting.
type WorkerStatus struct {
	Machine          int   `json:"machine"`
	MailboxDepth     int64 `json:"mailbox_depth"`
	EgressBacklog    int64 `json:"egress_backlog"`
	CreditStalls     int64 `json:"credit_stalls"`
	CreditStallNanos int64 `json:"credit_stall_nanos,omitempty"`
	BytesOut         int64 `json:"bytes_out"`
	BytesIn          int64 `json:"bytes_in"`
	ElementsOut      int64 `json:"elements_out"`
	TraceDropped     int64 `json:"trace_dropped,omitempty"`
	TelemetryDropped int64 `json:"telemetry_dropped,omitempty"`
}

// Totals are the job-wide transfer counters.
type Totals struct {
	ElementsSent    int64 `json:"elements_sent"`
	ElementsChained int64 `json:"elements_chained"`
	RemoteBatches   int64 `json:"remote_batches"`
	BytesSent       int64 `json:"bytes_sent"`
	BytesReceived   int64 `json:"bytes_received"`
}

// OpStatus is one logical operator in the live dataflow graph.
type OpStatus struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Block       int    `json:"block"`
	Parallelism int    `json:"parallelism"`
	Condition   bool   `json:"condition,omitempty"`
	Synthetic   bool   `json:"synthetic,omitempty"`
	// Chain is the 1-based operator-chain group the op is fused into,
	// 0 when unchained. Members of one chain run as one physical vertex.
	Chain     int              `json:"chain,omitempty"`
	Inputs    []EdgeStatus     `json:"inputs,omitempty"`
	Instances []InstanceStatus `json:"instances"`
}

// EdgeStatus is one input edge of an operator with its live producer-side
// buffered element count.
type EdgeStatus struct {
	From     string `json:"from"`
	Slot     int    `json:"slot"`
	Part     string `json:"part"`
	Combined bool   `json:"combined,omitempty"`
	// Chained marks an edge fused by operator chaining: elements cross it
	// by direct call, so its queue depth is always zero.
	Chained    bool  `json:"chained,omitempty"`
	QueueDepth int64 `json:"queue_depth"`
}

// InstanceStatus is one physical instance's live state.
type InstanceStatus struct {
	Machine      int   `json:"machine"`
	MailboxDepth int   `json:"mailbox_depth"`
	MailboxHWM   int   `json:"mailbox_hwm"`
	CurBag       int64 `json:"cur_bag"`
	BagsDone     int64 `json:"bags_done"`
	// BatchesParked counts the batches that waited in their link until
	// the instance could use them (the batches_parked counter).
	BatchesParked int64 `json:"batches_parked"`
}

// EgressStatus is one machine pair's transport backlog.
type EgressStatus struct {
	From    int `json:"from"`
	To      int `json:"to"`
	Backlog int `json:"backlog"`
}

// Server is the introspection HTTP server. Create one with NewHandler (for
// embedding or tests) or Serve (listening on an address), register
// executions with Register, and point a browser or Prometheus scraper at
// it. All handlers are read-only.
type Server struct {
	obs *obs.Observer
	mux *http.ServeMux

	srv *http.Server
	ln  net.Listener

	mu   sync.Mutex
	jobs []JobView
	snap func() *obs.Snapshot
}

// NewHandler returns a server without a listener; use it as an
// http.Handler (httptest, embedding into an existing mux).
func NewHandler(o *obs.Observer) *Server {
	s := &Server{obs: o, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/dot", s.handleJobDot)
	s.mux.HandleFunc("GET /lineage", s.handleLineage)
	s.mux.HandleFunc("GET /lineage/{bagid}", s.handleLineageBag)
	s.mux.HandleFunc("GET /criticalpath", s.handleCriticalPath)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Serve starts an introspection server listening on addr (host:port; use
// port 0 for an ephemeral port, see Addr).
func Serve(addr string, o *obs.Observer) (*Server, error) {
	s := NewHandler(o)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpserve: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return s, nil
}

// Addr returns the listening address ("" when created with NewHandler).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Handlers in flight finish; registered job
// views are kept (a reopened server would list them again).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Observer returns the observer the server exposes.
func (s *Server) Observer() *obs.Observer { return s.obs }

// SetSnapshotSource overrides where /metrics gets its snapshot. A cluster
// coordinator points this at its federation's Merged so one scrape covers
// every worker process; nil restores the server's own observer.
func (s *Server) SetSnapshotSource(f func() *obs.Snapshot) {
	s.mu.Lock()
	s.snap = f
	s.mu.Unlock()
}

// Register adds an execution to the /jobs listing and returns its 1-based
// id. Completed jobs stay listed (state done/failed) for post-mortem
// inspection. The engine registers after the job has started, which also
// orders the job's internal state before any handler reads it.
func (s *Server) Register(v JobView) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs = append(s.jobs, v)
	return len(s.jobs)
}

func (s *Server) job(id int) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 1 || id > len(s.jobs) {
		return nil
	}
	return s.jobs[id-1]
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `mitos introspection server
  /metrics            Prometheus text exposition
  /jobs               registered executions
  /jobs/{id}          live dataflow graph of one execution
  /jobs/{id}/dot      dot rendering with live counters
  /lineage            tracked bag identifiers
  /lineage/{bagid}    one bag's lineage record (op@pos)
  /criticalpath       critical-path analysis of the lineage DAG
  /trace              Chrome trace_event JSON timeline
  /debug/pprof/       runtime profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mu.Lock()
	src := s.snap
	s.mu.Unlock()
	if src != nil {
		WriteMetrics(w, src())
		return
	}
	WriteMetrics(w, s.obs.Snapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.obs.Trc()
	if t == nil {
		http.Error(w, "tracing is off (observer has no tracer)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.WriteJSON(w) //nolint:errcheck // client gone
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID    int    `json:"id"`
		Name  string `json:"name"`
		State string `json:"state"`
	}
	s.mu.Lock()
	views := append([]JobView(nil), s.jobs...)
	s.mu.Unlock()
	rows := make([]row, 0, len(views))
	for i, v := range views {
		st := v.Status()
		rows = append(rows, row{ID: i + 1, Name: v.Name(), State: st.State})
	}
	writeJSON(w, rows)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, v := s.jobParam(w, r)
	if v == nil {
		return
	}
	st := v.Status()
	st.ID = id
	st.Name = v.Name()
	writeJSON(w, st)
}

func (s *Server) handleJobDot(w http.ResponseWriter, r *http.Request) {
	_, v := s.jobParam(w, r)
	if v == nil {
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	fmt.Fprint(w, v.Dot())
}

func (s *Server) jobParam(w http.ResponseWriter, r *http.Request) (int, JobView) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusNotFound)
		return 0, nil
	}
	v := s.job(id)
	if v == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return 0, nil
	}
	return id, v
}

func (s *Server) lin(w http.ResponseWriter) *lineage.Tracker {
	t := s.obs.Lin()
	if t == nil {
		http.Error(w, "lineage tracking is off (observer has no lineage tracker)", http.StatusNotFound)
		return nil
	}
	return t
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	t := s.lin(w)
	if t == nil {
		return
	}
	snap := t.Snapshot()
	ids := make([]string, 0, len(snap.Bags))
	for _, b := range snap.Bags {
		ids = append(ids, b.ID.String())
	}
	sort.Strings(ids)
	writeJSON(w, map[string]any{"bags": ids, "positions": snap.Positions})
}

func (s *Server) handleLineageBag(w http.ResponseWriter, r *http.Request) {
	t := s.lin(w)
	if t == nil {
		return
	}
	id, err := lineage.ParseBagID(r.PathValue("bagid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	b := t.Snapshot().Bag(id)
	if b == nil {
		http.Error(w, "no such bag", http.StatusNotFound)
		return
	}
	writeJSON(w, b)
}

func (s *Server) handleCriticalPath(w http.ResponseWriter, r *http.Request) {
	t := s.lin(w)
	if t == nil {
		return
	}
	writeJSON(w, lineage.Analyze(t.Snapshot()))
}
