package api

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/cost"
	"brsmn/internal/groupd"
	"brsmn/internal/obs"
	"brsmn/internal/shard"
)

// planResponse is the reference rendering of a group plan reply: the
// GroupPlanResponse value encoding/json is held against.
func (s *Server) planResponse(p groupd.PlanInfo) GroupPlanResponse {
	row := cost.BRSMN(s.set.N())
	return GroupPlanResponse{
		ID:      p.ID,
		Gen:     p.Gen,
		Cached:  p.Cached,
		Columns: p.Columns,
		Plan:    base64.StdEncoding.EncodeToString(p.Blob),
		Backend: backend.TierBRSMN.String(),
		Passes:  1,
		Cost:    &row,
	}
}

// newSizedServer serves a one-shard Set over an n-port fabric without
// fault monitors; opts may switch on metrics.
func newSizedServer(tb testing.TB, n int, opts ...Option) *Server {
	tb.Helper()
	set, err := shard.New(shard.Config{Group: groupd.Config{N: n}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { set.Close() })
	return NewServer(set, nil, opts...)
}

// discardWriter is a ResponseWriter that keeps the headers and drops the
// body, so a handler's own allocations can be counted.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestPlanEnvelopeMatchesEncoder holds the appended plan envelope, sync
// and async, to the bytes json.Encoder writes for the reference struct.
func TestPlanEnvelopeMatchesEncoder(t *testing.T) {
	blob := make([]byte, 1000)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	for _, n := range []int{16, 1024} {
		s := newSizedServer(t, n)
		for _, id := range []string{"g", `a<b>&"c"`, "é ", "tab\there\u2028"} {
			for _, cached := range []bool{true, false} {
				for _, b := range [][]byte{nil, blob[:1], blob[:2], blob} {
					p := groupd.PlanInfo{ID: id, Gen: 1<<40 + 3, Cached: cached, Columns: 37, Blob: b}
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(Envelope{Data: s.planResponse(p)}); err != nil {
						t.Fatal(err)
					}
					got := append([]byte(`{"data":`), s.appendPlanData(nil, p)...)
					got = append(got, ",\"error\":null}\n"...)
					if !bytes.Equal(got, want.Bytes()) {
						t.Fatalf("n=%d id=%q cached=%v blob=%d:\n got %s\nwant %s", n, id, cached, len(b), got, want.Bytes())
					}
					// The async ticket path embeds the same bytes as its
					// result.
					tv, err := json.Marshal(TicketView{Result: json.RawMessage(s.appendPlanData(nil, p))})
					if err != nil {
						t.Fatal(err)
					}
					ref, _ := json.Marshal(TicketView{Result: s.planResponse(p)})
					if !bytes.Equal(tv, ref) {
						t.Fatalf("n=%d id=%q: ticket result\n got %s\nwant %s", n, id, tv, ref)
					}
				}
			}
		}
	}
}

// TestCachedGroupPlanServed checks a live cached fetch through the mux
// answers the encoder's bytes.
func TestCachedGroupPlanServed(t *testing.T) {
	s := newSizedServer(t, 1024)
	if _, err := s.set.Create(context.Background(), "a<b>", 3, []int{1, 9, 700}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.set.Plan(context.Background(), "a<b>"); err != nil {
		t.Fatal(err)
	}
	p, err := s.set.Plan(context.Background(), "a<b>")
	if err != nil || !p.Cached {
		t.Fatalf("second plan = %+v, %v; want a cache hit", p, err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/groups/a%3Cb%3E/plan", nil))
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(Envelope{Data: s.planResponse(p)})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("cached fetch = %d %q\n got %s\nwant %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
	}
}

// cachedPlanFetch returns a warm server at n = 1024 and a request for
// one of its cached plans.
func cachedPlanFetch(tb testing.TB, opts ...Option) (*Server, *http.Request) {
	s := newSizedServer(tb, 1024, opts...)
	members := make([]int, 0, 256)
	for d := 0; d < 1024; d += 4 {
		members = append(members, d)
	}
	ctx := context.Background()
	if _, err := s.set.Create(ctx, "hot", 5, members); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.set.Plan(ctx, "hot"); err != nil {
		tb.Fatal(err)
	}
	return s, httptest.NewRequest("GET", "/v1/groups/hot/plan", nil)
}

// maxCachedPlanAllocs bounds one cached plan fetch through ServeHTTP. A
// per-request cost row or a per-request JSON encoding of the plan would
// each exceed it many times over.
const maxCachedPlanAllocs = 16

// TestCachedGroupPlanAllocs gates the allocations of a cached
// GET /v1/groups/{id}/plan at n = 1024. With WithMetrics the request
// counter and latency histogram may add only the status-capturing
// writer: their series are resolved once per handler and status code.
func TestCachedGroupPlanAllocs(t *testing.T) {
	plain := cachedPlanAllocs(t)
	t.Logf("cached plan fetch at n=1024: %.0f allocs", plain)
	if plain > maxCachedPlanAllocs {
		t.Errorf("cached plan fetch allocates %.0f times, want <= %d", plain, maxCachedPlanAllocs)
	}
	t.Run("metrics", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector makes sync.Pool drop a quarter of its Puts, so planBufs reallocates at random")
		}
		withMetrics := cachedPlanAllocs(t, WithMetrics(obs.NewRegistry()))
		t.Logf("cached plan fetch at n=1024 with metrics: %.0f allocs", withMetrics)
		if withMetrics > plain+1 {
			t.Errorf("metrics add %.0f allocs to a cached plan fetch (%.0f without), want <= 1", withMetrics-plain, plain)
		}
	})
}

// cachedPlanAllocs counts the steady-state allocations of one cached
// plan fetch through ServeHTTP.
func cachedPlanAllocs(t *testing.T, opts ...Option) float64 {
	s, req := cachedPlanFetch(t, opts...)
	w := &discardWriter{h: http.Header{}}
	s.ServeHTTP(w, req)
	if w.code != http.StatusOK || w.n < 10_000 {
		t.Fatalf("cached fetch = %d, %d bytes", w.code, w.n)
	}
	return testing.AllocsPerRun(200, func() { s.ServeHTTP(w, req) })
}

// BenchmarkCachedGroupPlan measures one cached plan fetch at n = 1024
// through ServeHTTP, body discarded, without and with the request
// metrics brsmnd serves by default.
func BenchmarkCachedGroupPlan(b *testing.B) {
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"metrics=off", nil},
		{"metrics=on", []Option{WithMetrics(obs.NewRegistry())}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, req := cachedPlanFetch(b, c.opts...)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ServeHTTP(w, req)
			}
			if w.code != http.StatusOK {
				b.Fatalf("cached fetch = %d", w.code)
			}
		})
	}
}
