// Package api exposes the multicast network as a versioned JSON-over-HTTP
// service — the integration surface for systems that want to drive a
// (simulated or future hardware) BRSMN switch remotely. All endpoints
// live under /v1 and reply with the uniform envelope of envelope.go
// ({"data": ..., "error": ...}); the stateless core:
//
//	POST /v1/route     {"n":8,"dests":[[0,1],null,[3,4,7],[2],null,null,null,[5,6]]}
//	                   -> {"data":{"deliveries":[…],"splits":…,"depth":…},"error":null}
//	POST /v1/schedule  {"n":16,"requests":[{"source":0,"dests":[1,2]},…]}
//	POST /v1/plan      route + flattened plancodec column program on a
//	                   chosen fabric ({"n","dests","backend"}; brsmn by default)
//	POST /v1/pipeline  batch pipelining simulation
//	GET  /v1/cost?n=256
//	GET  /v1/sequence?n=8&dests=3,4,7
//
// Each of them answers 400 naming n when n is above maxN = 16384.
// /v1/route and /v1/plan route on warm per-size backends; see
// stateless.go.
//
// Every Server fronts a *shard.Set, which serves the stateful group
// endpoints of groups.go (with ?async=1 ticketed admission through the
// /v1/tickets surface of tickets.go: 202 + ticket ID, long-poll, SSE)
// and the shard introspection and rebalance endpoints of shards.go. One
// faultd.Monitor per shard enables the fault endpoints of faults.go.
//
// GET /healthz, /readyz and /metrics are additionally served at their
// unversioned paths for load balancers, probes and Prometheus scrapers;
// every other unversioned path is the catch-all 404. A Server is safe
// for concurrent use.
package api

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"brsmn/internal/backend"
	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/faultd"
	"brsmn/internal/mcast"
	"brsmn/internal/netsim"
	"brsmn/internal/obs"
	"brsmn/internal/plancodec"
	"brsmn/internal/sched"
	"brsmn/internal/shard"
)

// Server handles the HTTP API. Construct with NewServer.
type Server struct {
	set      *shard.Set
	monitors []*faultd.Monitor
	reg      *obs.Registry
	tracer   *obs.TraceRecorder
	ready    ReadyCheck
	mux      *http.ServeMux
	// planTail closes every group plan reply; see appendPlanData.
	planTail []byte
	// backendsReply is the whole GET /v1/backends reply.
	backendsReply []byte
	// warm serves /v1/route and /v1/plan; see stateless.go.
	warm warmBackends
}

// NewServer returns a handler-ready server. set serves the group,
// ticket, epoch, shard and snapshot endpoints and must be non-nil.
// monitors holds one fault monitor per shard and backs the ?shard=k
// selector of faults.go; when it is empty the fault endpoints answer
// 503. Options wire the optional observability and readiness surfaces of
// obs.go and ready.go.
func NewServer(set *shard.Set, monitors []*faultd.Monitor, opts ...Option) *Server {
	s := &Server{set: set, monitors: monitors, mux: http.NewServeMux(),
		planTail: planTail(set.N()), backendsReply: backendsReply(set.N())}
	for _, opt := range opts {
		opt(s)
	}
	s.route("POST /v1/route", "route", s.handleRoute)
	s.route("POST /v1/schedule", "schedule", s.handleSchedule)
	s.route("POST /v1/plan", "plan", s.handlePlan)
	s.route("POST /v1/pipeline", "pipeline", s.handlePipeline)
	s.route("GET /v1/cost", "cost", s.handleCost)
	s.route("GET /v1/sequence", "sequence", s.handleSequence)
	s.route("GET /v1/healthz", "healthz", s.handleHealthz)
	s.route("GET /v1/readyz", "readyz", s.handleReadyz)
	s.route("POST /v1/groups", "group_create", s.handleGroupCreate)
	s.route("GET /v1/groups", "group_list", s.handleGroupList)
	s.route("GET /v1/groups/{id}", "group_get", s.handleGroupGet)
	s.route("POST /v1/groups/{id}/join", "group_join", s.handleGroupJoin)
	s.route("POST /v1/groups/{id}/leave", "group_leave", s.handleGroupLeave)
	s.route("DELETE /v1/groups/{id}", "group_delete", s.handleGroupDelete)
	s.route("GET /v1/groups/{id}/plan", "group_plan", s.handleGroupPlan)
	s.route("GET /v1/backends", "backends", s.handleBackends)
	s.route("POST /v1/tickets", "ticket_submit", s.handleTicketSubmit)
	s.route("GET /v1/tickets", "ticket_stats", s.handleTicketStats)
	s.route("GET /v1/tickets/{id}", "ticket_get", s.handleTicketGet)
	s.route("GET /v1/tickets/{id}/events", "ticket_events", s.handleTicketEvents)
	s.route("GET /v1/epoch", "epoch", s.handleEpochGet)
	s.route("POST /v1/epoch", "epoch", s.handleEpochRun)
	s.route("GET /v1/faults", "faults", s.withFaults(s.handleFaultsGet))
	s.route("POST /v1/faults", "faults", s.withFaults(s.handleFaultsPost))
	s.route("DELETE /v1/faults", "faults", s.withFaults(s.handleFaultsDelete))
	s.route("GET /v1/faults/report", "faults_report", s.withFaults(s.handleFaultsReport))
	s.route("POST /v1/probe", "probe", s.withFaults(s.handleProbe))
	s.route("POST /v1/admin/snapshot", "admin_snapshot", s.handleAdminSnapshot)
	s.route("GET /v1/shards", "shards", s.handleShards)
	s.route("POST /v1/shards/{id}/quarantine", "shard_quarantine", s.handleShardQuarantine)
	s.route("POST /v1/shards/{id}/reinstate", "shard_reinstate", s.handleShardReinstate)
	s.route("GET /v1/metrics", "metrics", s.handleMetrics)
	s.route("GET /v1/trace/{group}", "trace", s.handleTrace)

	// Load balancers and Prometheus scrapers don't chase redirects:
	// serve the probe and exposition paths directly at their unversioned
	// addresses too.
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("GET /metrics", "metrics", s.handleMetrics)

	// Method-less fallbacks: a request for a registered path with an
	// unregistered method lands here instead of ServeMux's plain-text
	// auto-405, so the reply is the envelope with an Allow header.
	s.notAllowed("/v1/route", "POST")
	s.notAllowed("/v1/schedule", "POST")
	s.notAllowed("/v1/plan", "POST")
	s.notAllowed("/v1/pipeline", "POST")
	s.notAllowed("/v1/cost", "GET")
	s.notAllowed("/v1/sequence", "GET")
	s.notAllowed("/v1/healthz", "GET")
	s.notAllowed("/v1/readyz", "GET")
	s.notAllowed("/v1/groups", "GET, POST")
	s.notAllowed("/v1/groups/{id}", "GET, DELETE")
	s.notAllowed("/v1/groups/{id}/join", "POST")
	s.notAllowed("/v1/groups/{id}/leave", "POST")
	s.notAllowed("/v1/groups/{id}/plan", "GET")
	s.notAllowed("/v1/backends", "GET")
	s.notAllowed("/v1/tickets", "GET, POST")
	s.notAllowed("/v1/tickets/{id}", "GET")
	s.notAllowed("/v1/tickets/{id}/events", "GET")
	s.notAllowed("/v1/epoch", "GET, POST")
	s.notAllowed("/v1/faults", "GET, POST, DELETE")
	s.notAllowed("/v1/faults/report", "GET")
	s.notAllowed("/v1/probe", "POST")
	s.notAllowed("/v1/admin/snapshot", "POST")
	s.notAllowed("/v1/shards", "GET")
	s.notAllowed("/v1/shards/{id}/quarantine", "POST")
	s.notAllowed("/v1/shards/{id}/reinstate", "POST")
	s.notAllowed("/v1/metrics", "GET")
	s.notAllowed("/v1/trace/{group}", "GET")
	s.notAllowed("/healthz", "GET")
	s.notAllowed("/readyz", "GET")
	s.notAllowed("/metrics", "GET")

	// The catch-all 404 goes through the same envelope writer as every
	// other error — no plain-text leaks.
	s.mux.HandleFunc("/", s.instrument("not_found", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("api: no such endpoint %s", r.URL.Path))
	}))
	return s
}

// route registers an instrumented handler.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, h))
}

// notAllowed registers the method-less fallback for a path. Go's
// ServeMux prefers method-specific patterns, so this only fires for
// methods no handler claims.
func (s *Server) notAllowed(path, allow string) {
	s.mux.HandleFunc(path, s.instrument("method_not_allowed", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("api: method %s not allowed on %s; allowed: %s", r.Method, r.URL.Path, allow))
	}))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// RouteRequest is the /v1/route payload.
type RouteRequest struct {
	N     int       `json:"n"`
	Dests DestLists `json:"dests"`
}

func (r *RouteRequest) validate() (fields []FieldError) {
	fields = appendSizeField(fields, r.N)
	if len(r.Dests) == 0 {
		fields = append(fields, FieldError{Field: "dests", Reason: "required: one destination list per source"})
	}
	return fields
}

// RouteResponse is the /v1/route reply.
type RouteResponse struct {
	// Deliveries[out] is the source delivered at that output, -1 idle.
	Deliveries []int `json:"deliveries"`
	// Splits is the number of broadcast switches the routing used.
	Splits int `json:"splits"`
	// Depth is the column depth of the traversed network.
	Depth int `json:"depth"`
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	if !decode(w, r, &req) {
		return
	}
	a, err := mcast.New(req.N, req.Dests)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	wb, err := s.backendFor(backend.TierBRSMN, a.N)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	rt, err := wb.b.Route(a)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := RouteResponse{Deliveries: rt.Deliveries, Depth: cost.BRSMNDepth(a.N)}
	// The broadcast switches sit in the scatter and delivery columns.
	for _, c := range rt.Columns {
		if c.Kind == fabric.ColQuasisort {
			continue
		}
		for _, st := range c.Settings {
			if st.IsBroadcast() {
				resp.Splits++
			}
		}
	}
	writeData(w, http.StatusOK, resp)
}

// ScheduleRequest is the /v1/schedule payload.
type ScheduleRequest struct {
	N        int             `json:"n"`
	Requests []sched.Request `json:"requests"`
}

func (r *ScheduleRequest) validate() (fields []FieldError) {
	return appendSizeField(fields, r.N)
}

// ScheduleResponse is the /v1/schedule reply.
type ScheduleResponse struct {
	// Rounds[i][out] is round i's delivery vector.
	Rounds [][]int `json:"rounds"`
	// RoundOf[k] is the round request k was placed in.
	RoundOf []int `json:"roundOf"`
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if !decode(w, r, &req) {
		return
	}
	res, err := sched.RouteAll(req.N, req.Requests)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := ScheduleResponse{RoundOf: res.RoundOf}
	for _, rr := range res.Routed {
		vec := make([]int, req.N)
		for out, d := range rr.Deliveries {
			vec[out] = d.Source
		}
		resp.Rounds = append(resp.Rounds, vec)
	}
	writeData(w, http.StatusOK, resp)
}

// CostResponse is the /v1/cost reply: the Table 2 rows.
type CostResponse struct {
	N    int        `json:"n"`
	Rows []cost.Row `json:"rows"`
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil {
		n = 0 // reported as not a power of two
	}
	if fields := appendSizeField(nil, n); len(fields) > 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request", fields...)
		return
	}
	writeData(w, http.StatusOK, CostResponse{N: n, Rows: cost.Table2(n)})
}

// SequenceResponse is the /v1/sequence reply.
type SequenceResponse struct {
	Sequence string `json:"sequence"`
}

func (s *Server) handleSequence(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request",
			FieldError{Field: "n", Reason: "required: an integer network size"})
		return
	}
	if n > maxN {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request", appendSizeField(nil, n)...)
		return
	}
	var dests []int
	raw := r.URL.Query().Get("dests")
	if raw != "" {
		for _, f := range strings.Split(raw, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request",
					FieldError{Field: "dests", Reason: fmt.Sprintf("bad destination %q", f)})
				return
			}
			dests = append(dests, d)
		}
	}
	seq, err := mcast.SequenceFromDests(n, dests)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeData(w, http.StatusOK, SequenceResponse{Sequence: mcast.FormatSequence(seq)})
}

// PlanRequest is the /v1/plan payload: a /v1/route assignment plus the
// fabric to plan it on.
type PlanRequest struct {
	RouteRequest
	// Backend is "brsmn" (the default when empty), "feedback" or
	// "permnet".
	Backend string `json:"backend,omitempty"`
}

func (r *PlanRequest) validate() []FieldError {
	fields := r.RouteRequest.validate()
	if _, err := backend.ParseTier(r.Backend); err != nil {
		fields = append(fields, FieldError{Field: "backend", Reason: `must be "brsmn", "feedback", or "permnet"`})
	}
	return fields
}

// PlanResponse is the /v1/plan reply: the routed assignment's deliveries
// plus the flattened switch-column program in the plancodec binary
// format, base64-encoded — what a hardware configuration flow consumes.
// Backend, passes and cost describe the fabric that planned it, as in
// the group-plan envelope. A permnet program concatenates its unicast
// passes; a pass boundary is where the column level restarts at 1. It
// is the type clients decode the reply into; the server writes the same
// JSON directly (see writePlan).
type PlanResponse struct {
	Deliveries []int     `json:"deliveries"`
	Columns    int       `json:"columns"`
	Plan       string    `json:"plan"` // base64(plancodec)
	Backend    string    `json:"backend,omitempty"`
	Passes     int       `json:"passes,omitempty"`
	Cost       *cost.Row `json:"cost,omitempty"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decode(w, r, &req) {
		return
	}
	tier, _ := backend.ParseTier(req.Backend)
	a, err := mcast.New(req.N, req.Dests)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	wb, err := s.backendFor(tier, a.N)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	rt, err := wb.b.Route(a)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	blob, err := plancodec.Encode(a.N, rt.Columns)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	wb.writePlan(w, rt, blob)
}

// PipelineRequest is the /v1/pipeline payload: a batch of same-size
// assignments plus the injection gap.
type PipelineRequest struct {
	N     int       `json:"n"`
	Gap   int       `json:"gap"`
	Batch [][][]int `json:"batch"` // Batch[k] = assignment k's dests
}

func (r *PipelineRequest) validate() (fields []FieldError) {
	fields = appendSizeField(fields, r.N)
	if r.Gap < 0 {
		fields = append(fields, FieldError{Field: "gap", Reason: "must be non-negative"})
	}
	if len(r.Batch) == 0 {
		fields = append(fields, FieldError{Field: "batch", Reason: "required: at least one assignment"})
	}
	return fields
}

// PipelineResponse is the /v1/pipeline reply.
type PipelineResponse struct {
	Depth          int     `json:"depth"`
	Makespan       int     `json:"makespan"`
	Sequential     int     `json:"sequential"`
	Speedup        float64 `json:"speedup"`
	MaxColumnsBusy int     `json:"maxColumnsBusy"`
	Deliveries     [][]int `json:"deliveries"`
}

func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req PipelineRequest
	if !decode(w, r, &req) {
		return
	}
	as := make([]mcast.Assignment, len(req.Batch))
	for k, dests := range req.Batch {
		a, err := mcast.New(req.N, dests)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("api: assignment %d: %w", k, err))
			return
		}
		as[k] = a
	}
	rep, err := netsim.Pipeline(as, req.Gap)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeData(w, http.StatusOK, PipelineResponse{
		Depth:          rep.Depth,
		Makespan:       rep.Makespan,
		Sequential:     rep.SequentialMakespan,
		Speedup:        rep.Speedup(),
		MaxColumnsBusy: rep.MaxColumnsBusy,
		Deliveries:     rep.Deliveries,
	})
}
