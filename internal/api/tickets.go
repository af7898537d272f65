package api

// Asynchronous admission over HTTP — the ticket surface:
//
//	POST /v1/tickets              {"op":"join","group":"conf","dest":9}
//	                              -> 202 {"ticket":{...,"state":"queued"},"queue":{...}}
//	GET  /v1/tickets              -> registry + per-shard queue stats
//	GET  /v1/tickets/{id}         -> the ticket; ?wait=2s long-polls for completion
//	GET  /v1/tickets/{id}/events  -> SSE: "queued" immediately, "done" on completion
//
// The group endpoints accept ?async=1 as sugar for the same submission
// (POST /v1/groups?async=1 ≡ POST /v1/tickets with op=create). Every
// 202 carries the owning shard's queue depth and shed count, so clients
// see backpressure at submit time; completed tickets carry the
// stage-timing record of shard.TicketStamps plus derived durations.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"brsmn/internal/shard"
)

// maxTicketWait caps the long-poll window so a stuck client cannot pin
// a handler forever; poll again for longer waits.
const maxTicketWait = 30 * time.Second

// asyncRequested reports whether the request opted into ticketed
// admission via ?async=1|true.
func asyncRequested(r *http.Request) bool {
	v := r.URL.Query().Get("async")
	return v == "1" || v == "true"
}

// TicketStages is a ticket's stage-timing record on the wire: the raw
// Unix-ns stamps plus the derived stage durations.
type TicketStages struct {
	shard.TicketStamps
	QueueWaitNs int64 `json:"queueWaitNs"` // enqueue -> batch drain
	ExecNs      int64 `json:"execNs"`      // batch drain -> manager-call return
	SignalNs    int64 `json:"signalNs"`    // manager-call return -> ticket signaled
	TotalNs     int64 `json:"totalNs"`     // submit -> ticket signaled
}

// TicketView is a ticket's wire shape. Result is the op's usual success
// payload (group state, membership update, plan, or {"deleted": id});
// Error mirrors the envelope's error half. Both are set only when State
// is "done".
type TicketView struct {
	ID     string        `json:"id"`
	Op     string        `json:"op"`
	Group  string        `json:"group"`
	Shard  int           `json:"shard"`
	State  string        `json:"state"` // queued | done
	Error  *ErrorBody    `json:"error,omitempty"`
	Result any           `json:"result,omitempty"`
	Stages *TicketStages `json:"stages,omitempty"`
}

// TicketResponse is the 202 submission reply: the queued ticket plus
// the owning shard's backpressure view.
type TicketResponse struct {
	Ticket TicketView       `json:"ticket"`
	Queue  shard.QueueStats `json:"queue"`
}

// ticketView renders tk, including results and stages once done.
func (s *Server) ticketView(tk *shard.Ticket) TicketView {
	v := TicketView{
		ID:    tk.ID(),
		Op:    tk.Op(),
		Group: tk.Group(),
		Shard: tk.Shard(),
		State: "queued",
	}
	if !tk.Done() {
		return v
	}
	v.State = "done"
	st := tk.Stamps()
	v.Stages = &TicketStages{
		TicketStamps: st,
		QueueWaitNs:  st.Drained - st.Enqueued,
		ExecNs:       st.Execed - st.Drained,
		SignalNs:     st.Done - st.Execed,
		TotalNs:      st.Done - st.Submitted,
	}
	if err := tk.Err(); err != nil {
		status := groupErrStatus(err)
		v.Error = &ErrorBody{Code: codeForStatus(status), Message: err.Error()}
		return v
	}
	switch {
	case tk.Op() == "delete":
		v.Result = map[string]string{"deleted": tk.Group()}
	default:
		if info, ok := tk.Info(); ok {
			v.Result = info
		} else if up, ok := tk.Update(); ok {
			v.Result = up
		} else if p, ok := tk.Plan(); ok {
			v.Result = json.RawMessage(s.appendPlanData(nil, p))
		}
	}
	return v
}

// submitAsync runs one ticketed submission and writes the 202 (or the
// mapped submission error). Shared by POST /v1/tickets and the group
// endpoints' ?async=1 branch.
func (s *Server) submitAsync(w http.ResponseWriter, submit func(*shard.Set) (*shard.Ticket, error)) {
	tk, err := submit(s.set)
	if err != nil {
		groupErr(w, err)
		return
	}
	q, _ := s.set.QueueStats(tk.Shard())
	writeData(w, http.StatusAccepted, TicketResponse{Ticket: s.ticketView(tk), Queue: q})
}

// TicketSubmitRequest is the POST /v1/tickets payload — one group
// operation in self-describing form.
type TicketSubmitRequest struct {
	Op    string `json:"op"` // create | join | leave | delete | plan
	Group string `json:"group"`
	// Create fields.
	Source  int   `json:"source"`
	Members []int `json:"members"`
	// Join/leave field.
	Dest int `json:"dest"`
}

func (r *TicketSubmitRequest) validate() (fields []FieldError) {
	switch r.Op {
	case "create":
		if r.Source < 0 {
			fields = append(fields, FieldError{Field: "source", Reason: "must be a non-negative input port"})
		}
	case "join", "leave":
		if r.Dest < 0 {
			fields = append(fields, FieldError{Field: "dest", Reason: "must be a non-negative output port"})
		}
		fallthrough
	case "delete", "plan":
		if r.Group == "" {
			fields = append(fields, FieldError{Field: "group", Reason: "required"})
		}
	default:
		fields = append(fields, FieldError{Field: "op", Reason: "one of create, join, leave, delete, plan"})
	}
	return fields
}

func (s *Server) handleTicketSubmit(w http.ResponseWriter, r *http.Request) {
	var req TicketSubmitRequest
	if !decode(w, r, &req) {
		return
	}
	s.submitAsync(w, func(set *shard.Set) (*shard.Ticket, error) {
		switch req.Op {
		case "create":
			return set.SubmitCreate(req.Group, req.Source, req.Members)
		case "join":
			return set.SubmitJoin(req.Group, req.Dest)
		case "leave":
			return set.SubmitLeave(req.Group, req.Dest)
		case "delete":
			return set.SubmitDelete(req.Group)
		default:
			return set.SubmitPlan(req.Group)
		}
	})
}

// TicketStatsResponse is the GET /v1/tickets reply.
type TicketStatsResponse struct {
	Tickets shard.TicketStats  `json:"tickets"`
	Queues  []shard.QueueStats `json:"queues"`
}

func (s *Server) handleTicketStats(w http.ResponseWriter, r *http.Request) {
	resp := TicketStatsResponse{Tickets: s.set.TicketStats()}
	for i := 0; i < s.set.Shards(); i++ {
		q, err := s.set.QueueStats(i)
		if err != nil {
			continue
		}
		resp.Queues = append(resp.Queues, q)
	}
	writeData(w, http.StatusOK, resp)
}

// handleTicketGet serves one ticket; ?wait=<duration> long-polls up to
// maxTicketWait for completion before answering with whatever state the
// ticket is in.
func (s *Server) handleTicketGet(w http.ResponseWriter, r *http.Request) {
	tk, err := s.set.Ticket(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request",
				FieldError{Field: "wait", Reason: "must be a non-negative duration (e.g. 2s)"})
			return
		}
		if d > maxTicketWait {
			d = maxTicketWait
		}
		waitCtx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		_ = tk.Wait(waitCtx) // timeout just reports the current state
	}
	writeData(w, http.StatusOK, s.ticketView(tk))
}

// handleTicketEvents streams the ticket's lifecycle as server-sent
// events: a "queued" event immediately, then "done" with the final view
// when the result is published. The stream ends after "done" (or when
// the client disconnects) — tickets complete exactly once, so there is
// nothing further to push.
func (s *Server) handleTicketEvents(w http.ResponseWriter, r *http.Request) {
	tk, err := s.set.Ticket(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if !tk.Done() {
		writeSSE(w, "queued", s.ticketView(tk))
		_ = rc.Flush()
		select {
		case <-tk.DoneCh():
		case <-r.Context().Done():
			return
		}
	}
	writeSSE(w, "done", s.ticketView(tk))
	_ = rc.Flush()
}

// writeSSE emits one named event with a JSON data line.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte("{}")
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
