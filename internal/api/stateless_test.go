package api

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/core"
	"brsmn/internal/cost"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
	"brsmn/internal/workload"
)

// TestStatelessEndpointsBoundN checks every endpoint with a
// client-chosen n answers 400 naming n above maxN, before any work at
// that size, and still serves maxN itself.
func TestStatelessEndpointsBoundN(t *testing.T) {
	s := newSizedServer(t, 16)
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/route", `{"n":%d,"dests":[[0]]}`},
		{"POST", "/v1/plan", `{"n":%d,"dests":[[0]]}`},
		{"POST", "/v1/schedule", `{"n":%d,"requests":[{"source":0,"dests":[1]}]}`},
		{"POST", "/v1/pipeline", `{"n":%d,"gap":1,"batch":[[[0]]]}`},
		{"GET", "/v1/cost?n=%d", ""},
		{"GET", "/v1/sequence?n=%d&dests=0", ""},
	} {
		path, body := tc.path, tc.body
		if body == "" {
			path = fmt.Sprintf(path, 2*maxN)
		} else {
			body = fmt.Sprintf(body, 2*maxN)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, path, strings.NewReader(body)))
		var env rawEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: %v", tc.method, path, err)
		}
		e := env.Error
		if rec.Code != http.StatusBadRequest || e == nil || e.Code != CodeBadRequest ||
			len(e.Fields) != 1 || e.Fields[0].Field != "n" {
			t.Errorf("%s %s at n=%d = %d %+v, want 400 naming n", tc.method, path, 2*maxN, rec.Code, e)
		}
	}
	for _, path := range []string{fmt.Sprintf("/v1/cost?n=%d", maxN), fmt.Sprintf("/v1/sequence?n=%d&dests=0", maxN)} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// planCase is one /v1/plan request with the reply the cold path gives.
type planCase struct {
	name string
	tier backend.Tier
	a    mcast.Assignment
	body []byte
	want []byte
}

// coldPlanReply is the reference /v1/plan reply: a backend built for the
// one request, plancodec.Encode, and the encoding/json envelope.
func coldPlanReply(t testing.TB, tier backend.Tier, a mcast.Assignment) []byte {
	t.Helper()
	b, err := backend.New(tier, a.N)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := b.Route(a)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := plancodec.Encode(a.N, rt.Columns)
	if err != nil {
		t.Fatal(err)
	}
	row := b.Cost()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Envelope{Data: PlanResponse{
		Deliveries: rt.Deliveries,
		Columns:    len(rt.Columns),
		Plan:       base64.StdEncoding.EncodeToString(blob),
		Backend:    b.Name(),
		Passes:     rt.Passes,
		Cost:       &row,
	}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// statelessPlanCases draws random assignments at n = 8, 64, 256 and
// 1024 for every backend, ordered so consecutive cases change size and
// tier.
func statelessPlanCases(t testing.TB) []planCase {
	rng := rand.New(rand.NewSource(21))
	var cases []planCase
	for k, load := range []struct{ load, active float64 }{{1, 0.25}, {0.4, 0.6}} {
		for _, n := range []int{8, 64, 256, 1024} {
			for _, tier := range backend.Tiers() {
				a := workload.Random(rng, n, load.load, load.active)
				body, err := json.Marshal(PlanRequest{RouteRequest: RouteRequest{N: n, Dests: a.Dests}, Backend: tier.String()})
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, planCase{
					name: fmt.Sprintf("%v/n=%d/#%d", tier, n, k),
					tier: tier, a: a, body: body,
					want: coldPlanReply(t, tier, a),
				})
			}
		}
	}
	return cases
}

// servePlan posts body to /v1/plan through ServeHTTP.
func servePlan(s *Server, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestStatelessPlanWarmMatchesCold holds every /v1/plan reply from the
// warm per-size backends to the bytes of the cold path, with sizes and
// tiers interleaved, from concurrent clients, and right after requests
// that failed on the same warm backend.
func TestStatelessPlanWarmMatchesCold(t *testing.T) {
	cases := statelessPlanCases(t)
	check := func(t *testing.T, s *Server, c planCase) {
		t.Helper()
		if code, got := servePlan(s, c.body); code != http.StatusOK || !bytes.Equal(got, c.want) {
			t.Errorf("%s: warm reply %d differs from the cold path:\n got %.300s\nwant %.300s", c.name, code, got, c.want)
		}
	}
	t.Run("interleaved", func(t *testing.T) {
		s := newSizedServer(t, 16)
		for round := 0; round < 2; round++ {
			for _, c := range cases {
				check(t, s, c)
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		s := newSizedServer(t, 16)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(cases)) {
					check(t, s, cases[i])
				}
			}(g)
		}
		wg.Wait()
	})
	t.Run("after-error", func(t *testing.T) {
		s := newSizedServer(t, 16)
		for _, c := range cases {
			// Two sources claim output 0: a 422 from the handler, then
			// the same fan-in conflict routed straight on the warm
			// backend, so a pooled planner sees the failure.
			conflict := fmt.Sprintf(`{"n":%d,"dests":[[0],[0,1]],"backend":%q}`, c.a.N, c.tier)
			if code, _ := servePlan(s, []byte(conflict)); code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: fan-in conflict = %d, want 422", c.name, code)
			}
			wb, err := s.backendFor(c.tier, c.a.N)
			if err != nil {
				t.Fatal(err)
			}
			bad := mcast.Assignment{N: c.a.N, Dests: make([][]int, c.a.N)}
			bad.Dests[0], bad.Dests[1] = []int{0}, []int{0, 1}
			if _, err := wb.b.Route(bad); err == nil {
				t.Fatalf("%s: warm backend routed a fan-in conflict", c.name)
			}
			check(t, s, c)
		}
	})
}

// TestStatelessRouteMatchesCold holds /v1/route on the warm BRSMN
// backend to the reply of a network built for the one request.
func TestStatelessRouteMatchesCold(t *testing.T) {
	s := newSizedServer(t, 16)
	for _, c := range statelessPlanCases(t) {
		if c.tier != backend.TierBRSMN {
			continue
		}
		nw, err := core.New(c.a.N)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Route(c.a)
		if err != nil {
			t.Fatal(err)
		}
		want := RouteResponse{Depth: cost.BRSMNDepth(c.a.N)}
		for _, d := range res.Deliveries {
			want.Deliveries = append(want.Deliveries, d.Source)
		}
		for _, lp := range res.Plans {
			cnt := lp.Scatter.CountSettings()
			want.Splits += cnt[2] + cnt[3]
		}
		for _, f := range res.Final {
			if f.IsBroadcast() {
				want.Splits++
			}
		}
		var wantBuf bytes.Buffer
		_ = json.NewEncoder(&wantBuf).Encode(Envelope{Data: want})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/route", bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantBuf.Bytes()) {
			t.Errorf("%s: /v1/route = %d\n got %.300s\nwant %.300s", c.name, rec.Code, rec.Body.Bytes(), wantBuf.Bytes())
		}
	}
}

// denseStatelessPlan returns the body of a dense n = 1024 brsmn plan
// request: every output claimed by one of 256 sources.
func denseStatelessPlan(tb testing.TB) []byte {
	a := workload.Random(rand.New(rand.NewSource(1)), 1024, 1, 0.25)
	body, err := json.Marshal(PlanRequest{RouteRequest: RouteRequest{N: a.N, Dests: a.Dests}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// replayRequest is one POST /v1/plan whose body rewinds before every
// serve, so a loop measures the handler and not the request.
type replayRequest struct {
	req  *http.Request
	rd   *bytes.Reader
	body []byte
}

func newReplayRequest(body []byte) *replayRequest {
	rr := &replayRequest{rd: bytes.NewReader(body), body: body}
	rr.req = httptest.NewRequest("POST", "/v1/plan", nil)
	rr.req.Body = io.NopCloser(rr.rd)
	return rr
}

func (rr *replayRequest) serve(s *Server, w http.ResponseWriter) {
	rr.rd.Reset(rr.body)
	s.ServeHTTP(w, rr.req)
}

// maxStatelessPlanAllocs bounds one warm dense n = 1024 brsmn request
// through ServeHTTP, which makes about 30. A network built per request
// makes about 4,500, a decode that allocates each row adds 256, and a
// flatten or encode that allocates each column adds about 100.
const maxStatelessPlanAllocs = 64

// TestStatelessPlanAllocs gates the allocations of a warm dense
// POST /v1/plan at n = 1024.
func TestStatelessPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts, so every fourth request builds a planner")
	}
	s := newSizedServer(t, 16)
	rr := newReplayRequest(denseStatelessPlan(t))
	w := &discardWriter{h: http.Header{}}
	rr.serve(s, w)
	if w.code != http.StatusOK || w.n < 10_000 {
		t.Fatalf("dense plan = %d, %d bytes", w.code, w.n)
	}
	allocs := testing.AllocsPerRun(100, func() { rr.serve(s, w) })
	t.Logf("warm dense plan at n=1024: %.0f allocs", allocs)
	if allocs > maxStatelessPlanAllocs {
		t.Errorf("warm dense plan allocates %.0f times, want <= %d", allocs, maxStatelessPlanAllocs)
	}
}

// BenchmarkStatelessPlan measures a warm dense n = 1024 brsmn
// POST /v1/plan through ServeHTTP, then each of its stages alone, so a
// change names the layer that moved: decode (JSON body to validated
// assignment), route (a pooled planner), flatten+encode (column program
// to plancodec blob) and envelope (the reply bytes).
func BenchmarkStatelessPlan(b *testing.B) {
	s := newSizedServer(b, 16)
	body := denseStatelessPlan(b)
	var req PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	a, err := mcast.New(req.N, req.Dests)
	if err != nil {
		b.Fatal(err)
	}
	wb, err := s.backendFor(backend.TierBRSMN, a.N)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := wb.b.Route(a)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := plancodec.Encode(a.N, rt.Columns)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := core.New(a.N)
	if err != nil {
		b.Fatal(err)
	}
	pool := nw.Planners()
	pl := pool.Get()
	res, err := pl.Route(a)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	rr := newReplayRequest(body)
	stages := []struct {
		name string
		run  func() error
	}{
		{"serve", func() error {
			rr.serve(s, w)
			if w.code != http.StatusOK {
				return fmt.Errorf("plan = %d", w.code)
			}
			return nil
		}},
		{"decode", func() error {
			var r PlanRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
				return err
			}
			_, err := mcast.New(r.N, r.Dests)
			return err
		}},
		{"route", func() error { _, err := pl.Route(a); return err }},
		{"flatten+encode", func() error {
			cols, err := fabric.Flatten(res)
			if err != nil {
				return err
			}
			_, err = plancodec.Encode(a.N, cols)
			return err
		}},
		{"envelope", func() error { wb.writePlan(w, rt, blob); return nil }},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
