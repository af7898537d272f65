package api

// Tests for the async admission surface: POST /v1/tickets, the
// ?async=1 sugar on the group endpoints, long-poll pickup, and the SSE
// stream.

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestTicketSubmitAndPoll(t *testing.T) {
	ts, _ := newShardServer(t, 2)

	// Submit a create; the 202 carries the queued ticket plus the owning
	// shard's backpressure view.
	var sub TicketResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/tickets",
		TicketSubmitRequest{Op: "create", Group: "async-a", Source: 0, Members: []int{1, 2}},
		&sub); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if sub.Ticket.ID == "" || sub.Ticket.Op != "create" || sub.Ticket.Group != "async-a" {
		t.Fatalf("ticket = %+v", sub.Ticket)
	}
	if sub.Queue.Depth == 0 {
		t.Fatalf("202 carries no queue view: %+v", sub.Queue)
	}

	// Long-poll until done; the view carries the result and the full
	// stage-timing record.
	var view TicketView
	if code := doJSON(t, "GET", ts.URL+"/v1/tickets/"+sub.Ticket.ID+"?wait=5s", nil, &view); code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	if view.State != "done" || view.Error != nil {
		t.Fatalf("view = %+v", view)
	}
	if view.Stages == nil || view.Stages.Done < view.Stages.Submitted || view.Stages.QueueWaitNs < 0 {
		t.Fatalf("stages = %+v", view.Stages)
	}
	if view.Result == nil {
		t.Fatal("done view carries no result")
	}

	// The created group is visible to the sync surface.
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/async-a", nil, nil); code != http.StatusOK {
		t.Fatalf("group after async create = %d", code)
	}

	// A failing op completes with the mapped error in the view, not an
	// HTTP error on the poll itself.
	if code := doJSON(t, "POST", ts.URL+"/v1/tickets",
		TicketSubmitRequest{Op: "plan", Group: "nope"}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit plan = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/tickets/"+sub.Ticket.ID+"?wait=5s", nil, &view); code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	if view.State != "done" || view.Error == nil || view.Error.Code != CodeNotFound {
		t.Fatalf("failed-op view = %+v", view)
	}

	// Registry stats include the submissions above.
	var stats TicketStatsResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/tickets", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Tickets.Submitted < 2 || len(stats.Queues) != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	// Validation and lookup failures.
	e := checkJSONError(t, mustDo(t, "POST", ts.URL+"/v1/tickets", `{"op":"explode"}`), http.StatusBadRequest)
	if len(e.Fields) == 0 || e.Fields[0].Field != "op" {
		t.Fatalf("bad op error = %+v", e)
	}
	e = checkJSONError(t, mustDo(t, "GET", ts.URL+"/v1/tickets/t99999", ""), http.StatusNotFound)
	if e.Code != CodeNotFound {
		t.Fatalf("unknown ticket code = %q", e.Code)
	}
	e = checkJSONError(t, mustDo(t, "GET", ts.URL+"/v1/tickets/"+sub.Ticket.ID+"?wait=banana", ""), http.StatusBadRequest)
	if len(e.Fields) == 0 || e.Fields[0].Field != "wait" {
		t.Fatalf("bad wait error = %+v", e)
	}
}

// TestAsyncQuerySugar drives the ?async=1 form of the group endpoints:
// same submission, same 202 shape.
func TestAsyncQuerySugar(t *testing.T) {
	ts, _ := newShardServer(t, 2)

	var sub TicketResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/groups?async=1",
		CreateGroupRequest{ID: "sugar", Source: 0, Members: []int{3}}, &sub); code != http.StatusAccepted {
		t.Fatalf("async create = %d", code)
	}
	var view TicketView
	if code := doJSON(t, "GET", ts.URL+"/v1/tickets/"+sub.Ticket.ID+"?wait=5s", nil, &view); code != http.StatusOK || view.State != "done" {
		t.Fatalf("async create ticket: %d %+v", code, view)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/groups/sugar/join?async=1",
		MembershipRequest{Dest: 9}, &sub); code != http.StatusAccepted {
		t.Fatalf("async join = %d", code)
	}
	if sub.Ticket.Op != "join" {
		t.Fatalf("sugar join op = %q", sub.Ticket.Op)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/tickets/"+sub.Ticket.ID+"?wait=5s", nil, &view); code != http.StatusOK ||
		view.State != "done" || view.Error != nil {
		t.Fatalf("async join ticket: %d %+v", code, view)
	}

	// Without the flag the same endpoints stay synchronous.
	if code := doJSON(t, "POST", ts.URL+"/v1/groups/sugar/leave", MembershipRequest{Dest: 9}, nil); code != http.StatusOK {
		t.Fatalf("sync leave = %d", code)
	}
}

// TestTicketSSE reads the event stream to completion: it must end with
// a "done" event carrying the finished view.
func TestTicketSSE(t *testing.T) {
	ts, _ := newShardServer(t, 2)

	var sub TicketResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/tickets",
		TicketSubmitRequest{Op: "create", Group: "sse-g", Source: 0, Members: []int{1}}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/tickets/" + sub.Ticket.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body) // the stream ends after "done"
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "event: done") {
		t.Fatalf("stream missing done event:\n%s", body)
	}
	if !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("done event missing finished view:\n%s", body)
	}
}

// mustDo issues one request with an optional raw JSON body.
func mustDo(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
