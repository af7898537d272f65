package api

// Observability endpoints and HTTP instrumentation, active when the
// server is constructed with WithMetrics / WithTracer:
//
//	GET /v1/metrics         -> Prometheus text exposition of the registry
//	GET /v1/trace/{group}   -> the last recorded planning trace as JSON
//
// /metrics is also served unversioned for scrapers; its
// exposition-format body and the ticket event stream are the only
// non-envelope responses.
//
// Every handler is additionally wrapped to count requests by handler
// and status code (brsmn_http_requests_total) and observe latency
// (brsmn_http_request_seconds). Without a registry the handler is left
// unwrapped — no status capture, no clock reads.

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/obs"
)

// Option configures optional Server subsystems.
type Option func(*Server)

// WithMetrics serves reg on GET /metrics and instruments every handler
// with request/latency series.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithTracer serves rec's last-trace-per-group on GET /trace/{group}.
func WithTracer(rec *obs.TraceRecorder) Option {
	return func(s *Server) { s.tracer = rec }
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: metrics not enabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// TraceResponse is the GET /v1/trace/{group} reply.
type TraceResponse struct {
	Group string          `json:"group"`
	Trace *obs.RouteTrace `json:"trace"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, "api: tracing not enabled")
		return
	}
	group := r.PathValue("group")
	tr := s.tracer.Last(group)
	if tr == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("api: no trace recorded for %q (traces are sampled; route the group first)", group))
		return
	}
	writeData(w, http.StatusOK, TraceResponse{Group: group, Trace: tr})
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// the SSE handler can flush through the instrumentation wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps h with per-handler request counting and latency
// observation. With no registry it returns h unchanged.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	if s.reg == nil {
		return h
	}
	hm := &handlerMetrics{
		reg:      s.reg,
		name:     name,
		histName: `brsmn_http_request_seconds{handler=` + strconv.Quote(name) + `}`,
	}
	hm.codes.Store(new([]codeCounter))
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		hm.counter(sw.code).Inc()
		hm.histogram().ObserveDuration(time.Since(t0))
	}
}

// handlerMetrics caches one handler's series. Both register on the
// handler's first request, in the order the exposition has always
// shown them (the request counter, then the latency histogram); after
// that a request costs two atomic loads and a scan of the few status
// codes the handler has answered.
type handlerMetrics struct {
	reg      *obs.Registry
	name     string
	histName string
	hist     atomic.Pointer[obs.Histogram]
	mu       sync.Mutex                    // serializes codes growth
	codes    atomic.Pointer[[]codeCounter] // copy-on-write
}

// codeCounter is the request counter of one (handler, status code).
type codeCounter struct {
	code int
	c    *obs.Counter
}

// lookup returns the counter of an already-seen status code, or nil.
func (hm *handlerMetrics) lookup(code int) *obs.Counter {
	for _, cc := range *hm.codes.Load() {
		if cc.code == code {
			return cc.c
		}
	}
	return nil
}

func (hm *handlerMetrics) counter(code int) *obs.Counter {
	if c := hm.lookup(code); c != nil {
		return c
	}
	hm.mu.Lock()
	defer hm.mu.Unlock()
	if c := hm.lookup(code); c != nil {
		return c
	}
	c := hm.reg.Counter(
		fmt.Sprintf(`brsmn_http_requests_total{handler=%q,code="%d"}`, hm.name, code),
		"HTTP requests by handler and status code.")
	// Clip forces append to copy, so a reader of the old slice never
	// sees it change.
	next := append(slices.Clip(*hm.codes.Load()), codeCounter{code, c})
	hm.codes.Store(&next)
	return c
}

func (hm *handlerMetrics) histogram() *obs.Histogram {
	if h := hm.hist.Load(); h != nil {
		return h
	}
	// The registry returns the same series to every racing caller.
	h := hm.reg.Histogram(hm.histName, "HTTP request latency by handler.", obs.SecondsBuckets())
	hm.hist.Store(h)
	return h
}
