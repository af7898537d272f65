package api

// Stateful group endpoints, served by the sharded *shard.Set:
//
//	POST   /v1/groups              {"id":"conf","source":2,"members":[3,4,7]} -> group state
//	GET    /v1/groups              -> {"count","offset","groups"} (paginated, Link headers)
//	GET    /v1/groups/{id}         -> {"id","source","gen","size","members","sequence"}
//	POST   /v1/groups/{id}/join    {"dest":9}  -> {"id","gen","size"}
//	POST   /v1/groups/{id}/leave   {"dest":9}  -> {"id","gen","size"}
//	DELETE /v1/groups/{id}         -> {"deleted":"conf"}
//	GET    /v1/groups/{id}/plan    -> the cached/recomputed column program
//	GET    /v1/backends            -> the comparison fabrics: capabilities and cost rows
//	GET    /v1/epoch               -> the last epoch report
//	POST   /v1/epoch               -> run an epoch now, return its report
//	GET    /v1/healthz             -> liveness + group/shard/fault summary
//
// Mutations and plan fetches run under the request context, so a
// disconnected client frees its admission slot instead of pinning the
// handler for the full queue+batch latency.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"brsmn/internal/backend"
	"brsmn/internal/cost"
	"brsmn/internal/faultd"
	"brsmn/internal/groupd"
	"brsmn/internal/shard"
)

// groupErrStatus maps backend sentinel errors onto statuses: groupd's
// registry errors plus shard's admission, placement, and ticket errors.
func groupErrStatus(err error) int {
	switch {
	case errors.Is(err, groupd.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, groupd.ErrExists):
		return http.StatusConflict
	case errors.Is(err, groupd.ErrClosed), errors.Is(err, shard.ErrClosed), errors.Is(err, shard.ErrNoLiveShard):
		return http.StatusServiceUnavailable
	case errors.Is(err, shard.ErrOverloaded), errors.Is(err, shard.ErrTicketLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client's context ended while the operation was queued; the
		// slot was freed and nothing counted as admitted.
		return StatusClientClosedRequest
	case errors.Is(err, groupd.ErrStore):
		// The mutation was rolled back; the durable store itself broke.
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// groupErr writes the envelope for a backend error.
func groupErr(w http.ResponseWriter, err error) {
	httpError(w, groupErrStatus(err), err)
}

// CreateGroupRequest is the POST /v1/groups payload.
type CreateGroupRequest struct {
	// ID is optional; empty auto-assigns one.
	ID      string `json:"id"`
	Source  int    `json:"source"`
	Members []int  `json:"members"`
}

func (r *CreateGroupRequest) validate() (fields []FieldError) {
	if r.Source < 0 {
		fields = append(fields, FieldError{Field: "source", Reason: "must be a non-negative input port"})
	}
	for _, m := range r.Members {
		if m < 0 {
			fields = append(fields, FieldError{Field: "members", Reason: fmt.Sprintf("output %d is negative", m)})
			break
		}
	}
	return fields
}

func (s *Server) handleGroupCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateGroupRequest
	if !decode(w, r, &req) {
		return
	}
	if asyncRequested(r) {
		s.submitAsync(w, func(set *shard.Set) (*shard.Ticket, error) {
			return set.SubmitCreate(req.ID, req.Source, req.Members)
		})
		return
	}
	info, err := s.set.Create(r.Context(), req.ID, req.Source, req.Members)
	if err != nil {
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusCreated, info)
}

// GroupListResponse is the GET /v1/groups reply. Count is the total
// registered groups; Groups is the requested window of them.
type GroupListResponse struct {
	Count  int                `json:"count"`
	Offset int                `json:"offset"`
	Groups []groupd.GroupInfo `json:"groups"`
}

// handleGroupList serves the group listing with offset/limit pagination
// and RFC 8288 Link headers for the neighboring pages.
func (s *Server) handleGroupList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var fields []FieldError
	limit := queryInt(q, "limit", 0, &fields)
	offset := queryInt(q, "offset", 0, &fields)
	if len(fields) > 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request", fields...)
		return
	}
	list := s.set.List()
	total := len(list)
	if offset > total {
		offset = total
	}
	window := list[offset:]
	if limit > 0 {
		end := offset + limit
		if end > total {
			end = total
		}
		window = list[offset:end]
		if end < total {
			w.Header().Add("Link", fmt.Sprintf(`</v1/groups?offset=%d&limit=%d>; rel="next"`, end, limit))
		}
		if offset > 0 {
			prev := offset - limit
			if prev < 0 {
				prev = 0
			}
			w.Header().Add("Link", fmt.Sprintf(`</v1/groups?offset=%d&limit=%d>; rel="prev"`, prev, limit))
		}
	}
	writeData(w, http.StatusOK, GroupListResponse{Count: total, Offset: offset, Groups: window})
}

func (s *Server) handleGroupGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.set.Get(r.PathValue("id"))
	if err != nil {
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusOK, info)
}

// MembershipRequest is the join/leave payload.
type MembershipRequest struct {
	Dest int `json:"dest"`
}

func (r *MembershipRequest) validate() (fields []FieldError) {
	if r.Dest < 0 {
		fields = append(fields, FieldError{Field: "dest", Reason: "must be a non-negative output port"})
	}
	return fields
}

func (s *Server) handleGroupJoin(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, (*shard.Set).Join, (*shard.Set).SubmitJoin)
}

func (s *Server) handleGroupLeave(w http.ResponseWriter, r *http.Request) {
	s.handleMembership(w, r, (*shard.Set).Leave, (*shard.Set).SubmitLeave)
}

func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request,
	op func(*shard.Set, context.Context, string, int) (groupd.Update, error),
	submit func(*shard.Set, string, int) (*shard.Ticket, error)) {
	var req MembershipRequest
	if !decode(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	if asyncRequested(r) {
		s.submitAsync(w, func(set *shard.Set) (*shard.Ticket, error) {
			return submit(set, id, req.Dest)
		})
		return
	}
	u, err := op(s.set, r.Context(), id, req.Dest)
	if err != nil {
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusOK, u)
}

func (s *Server) handleGroupDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if asyncRequested(r) {
		s.submitAsync(w, func(set *shard.Set) (*shard.Ticket, error) {
			return set.SubmitDelete(id)
		})
		return
	}
	if err := s.set.Delete(r.Context(), id); err != nil {
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusOK, map[string]string{"deleted": id})
}

// GroupPlanResponse is the GET /v1/groups/{id}/plan reply: the type
// clients decode it into. The server does not build it; appendPlanData
// writes the same JSON directly.
type GroupPlanResponse struct {
	ID      string `json:"id"`
	Gen     uint64 `json:"gen"`
	Cached  bool   `json:"cached"`
	Columns int    `json:"columns"`
	Plan    string `json:"plan"` // base64(plancodec)
	// Backend is the fabric that produced the program — always "brsmn"
	// for groups; Passes is the injection passes it spans (1); Cost is
	// the fabric's hardware row at the serving network's size.
	Backend string    `json:"backend,omitempty"`
	Passes  int       `json:"passes,omitempty"`
	Cost    *cost.Row `json:"cost,omitempty"`
}

func (s *Server) handleGroupPlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if asyncRequested(r) {
		s.submitAsync(w, func(set *shard.Set) (*shard.Ticket, error) {
			return set.SubmitPlan(id)
		})
		return
	}
	p, err := s.set.Plan(r.Context(), id)
	if err != nil {
		groupErr(w, err)
		return
	}
	bp := planBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `{"data":`...)
	buf = s.appendPlanData(buf, p)
	buf = append(buf, ",\"error\":null}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // a failed write means the client is gone
	*bp = buf
	planBufs.Put(bp)
}

// planBufs recycles the envelope buffers of plan replies; a reply at
// n = 1024 is about 19 KiB.
var planBufs = sync.Pool{New: func() any { return new([]byte) }}

// planTail renders the part of every group plan reply that depends only
// on the serving size: the backend, the pass count and the BRSMN cost
// row, closing the data object.
func planTail(n int) []byte {
	// A string and a struct of a string and ints always marshal.
	name, _ := json.Marshal(backend.TierBRSMN.String())
	row, _ := json.Marshal(cost.BRSMN(n))
	tail := append([]byte(`,"backend":`), name...)
	tail = append(tail, `,"passes":1,"cost":`...)
	tail = append(tail, row...)
	return append(tail, '}')
}

// appendPlanData appends p as the JSON of a GroupPlanResponse, byte for
// byte what encoding/json writes for it. Every group is planned on the
// full BRSMN in one pass, so the tail is the server's precomputed
// planTail; the plan is one base64 pass over the cached blob.
func (s *Server) appendPlanData(buf []byte, p groupd.PlanInfo) []byte {
	buf = append(buf, `{"id":`...)
	buf = appendJSONString(buf, p.ID)
	buf = append(buf, `,"gen":`...)
	buf = strconv.AppendUint(buf, p.Gen, 10)
	buf = append(buf, `,"cached":`...)
	buf = strconv.AppendBool(buf, p.Cached)
	buf = append(buf, `,"columns":`...)
	buf = strconv.AppendInt(buf, int64(p.Columns), 10)
	buf = append(buf, `,"plan":"`...)
	buf = base64.StdEncoding.AppendEncode(buf, p.Blob)
	buf = append(buf, '"')
	return append(buf, s.planTail...)
}

// appendJSONString appends v as a JSON string with encoding/json's
// escaping. Plain printable ASCII, the common group id, is copied as is;
// anything else goes through json.Marshal, so HTML-sensitive and
// non-ASCII characters are escaped exactly as the encoder escapes them.
func appendJSONString(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(v) // a string always marshals
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, v...)
	return append(buf, '"')
}

// BackendInfo describes one fabric in the GET /v1/backends reply.
type BackendInfo struct {
	Name string `json:"name"`
	// Patch reports whether the fabric's plans accept incremental
	// membership patches.
	Patch bool `json:"patch"`
	// Cost is the fabric's hardware/routing row at the serving network's
	// size (the paper's Table 2 accounting).
	Cost cost.Row `json:"cost"`
}

// BackendsResponse is the GET /v1/backends reply.
type BackendsResponse struct {
	N        int           `json:"n"`
	Backends []BackendInfo `json:"backends"`
}

// backendsReply renders the whole GET /v1/backends reply, which depends
// only on the serving size: every tier's name, whether its plans accept
// membership patches (only the full BRSMN's carry the routing-tag trees
// a patch edits) and its closed-form cost row. The bytes are what
// writeData would encode for the same response.
func backendsReply(n int) []byte {
	resp := BackendsResponse{N: n, Backends: []BackendInfo{
		{Name: backend.TierBRSMN.String(), Patch: true, Cost: cost.BRSMN(n)},
		{Name: backend.TierFeedback.String(), Cost: cost.Feedback(n)},
		{Name: backend.TierPermNet.String(), Cost: cost.PermNet(n)},
	}}
	b, _ := json.Marshal(Envelope{Data: resp}) // strings, bools and ints always marshal
	return append(b, '\n')
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.backendsReply) // a failed write means the client is gone
}

func (s *Server) handleEpochGet(w http.ResponseWriter, r *http.Request) {
	rep := s.set.LastEpoch()
	if rep == nil {
		rep = &groupd.EpochReport{}
	}
	writeData(w, http.StatusOK, rep)
}

func (s *Server) handleEpochRun(w http.ResponseWriter, r *http.Request) {
	rep, err := s.set.RunEpoch()
	if err != nil {
		groupErr(w, err)
		return
	}
	writeData(w, http.StatusOK, rep)
}

// HealthResponse is the GET /v1/healthz reply.
type HealthResponse struct {
	Status  string `json:"status"`
	Groups  int    `json:"groups"`
	Epoch   int64  `json:"epoch"`
	Pending int64  `json:"pending"`
	// Faults carries the fault-management counters of every shard's
	// monitor, combined by faultStats, when the server has monitors.
	Faults *faultd.Stats `json:"faults,omitempty"`
	// Shards carries the serving layer's aggregated snapshot.
	Shards *shard.SetStats `json:"shards,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := s.set.Stats()
	resp := HealthResponse{
		Status:  "ok",
		Groups:  s.set.Count(),
		Epoch:   s.set.Epoch(),
		Pending: s.set.Pending(),
		Shards:  &shards,
		Faults:  s.faultStats(),
	}
	writeData(w, http.StatusOK, resp)
}

// faultStats combines the monitors' counters, nil without monitors. A
// fault detected on any shard marks the whole as detected, and
// DetectedAtProbe is the earliest shard-local detection. The counters
// are summed. So is Version, which therefore changes whenever any
// shard's fault policy does.
func (s *Server) faultStats() *faultd.Stats {
	if len(s.monitors) == 0 {
		return nil
	}
	var sum faultd.Stats
	for _, fm := range s.monitors {
		st := fm.Stats()
		sum.ProbeRounds += st.ProbeRounds
		sum.ProbesRun += st.ProbesRun
		sum.ProbeFailures += st.ProbeFailures
		sum.Detected = sum.Detected || st.Detected
		if st.DetectedAtProbe != 0 && (sum.DetectedAtProbe == 0 || st.DetectedAtProbe < sum.DetectedAtProbe) {
			sum.DetectedAtProbe = st.DetectedAtProbe
		}
		sum.Candidates += st.Candidates
		sum.QuarantinedOuts += st.QuarantinedOuts
		sum.DegradedReplans += st.DegradedReplans
		sum.Version += st.Version
	}
	return &sum
}
