package api

// The stateless planners behind POST /v1/route and POST /v1/plan. The
// network is self-routing — an assignment's switch settings follow from
// its tags alone — so a request needs one warm route, not a new
// network: the Server holds one lazily built backend per tier and
// network size up to maxN, and a backend that keeps planners draws them
// from a sync.Pool. Idle planners go at GC, so the memory held stays
// bounded by the requests in flight, as it was with a network built per
// request.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"brsmn/internal/backend"
	"brsmn/internal/shuffle"
)

// maxLogN is log2 of maxN.
const maxLogN = 14

// maxN bounds the client-chosen n of every stateless endpoint. A
// request's time and memory grow as n log^2 n, so past this bound one
// small request could exhaust a small host.
const maxN = 1 << maxLogN

// appendSizeField appends the FieldError for a client-chosen network
// size n that is not a power of two in [2, maxN].
func appendSizeField(fields []FieldError, n int) []FieldError {
	switch {
	case n < 2 || !shuffle.IsPow2(n):
		return append(fields, FieldError{Field: "n", Reason: "required: a power of two >= 2"})
	case n > maxN:
		return append(fields, FieldError{Field: "n", Reason: fmt.Sprintf("must be at most %d", maxN)})
	}
	return fields
}

// warmBackend is one lazily built stateless backend plus the JSON of
// its name and cost row, which every plan reply on it repeats.
type warmBackend struct {
	once sync.Once
	b    backend.Backend
	err  error
	name []byte
	cost []byte
}

// warmBackends holds one backend per tier and log2 n.
type warmBackends [backend.TierPermNet + 1][maxLogN + 1]warmBackend

// backendFor returns the warm backend of tier t for a size n that
// appendSizeField accepts, building it on first use.
func (s *Server) backendFor(t backend.Tier, n int) (*warmBackend, error) {
	wb := &s.warm[t][shuffle.Log2(n)]
	wb.once.Do(func() {
		wb.b, wb.err = backend.New(t, n)
		if wb.err == nil {
			// A string and a struct of a string and ints always marshal.
			wb.name, _ = json.Marshal(wb.b.Name())
			wb.cost, _ = json.Marshal(wb.b.Cost())
		}
	})
	return wb, wb.err
}

// writePlan writes the /v1/plan success envelope of a routed plan, byte
// for byte what encoding/json writes for Envelope{Data: PlanResponse},
// appended into a pooled buffer.
func (wb *warmBackend) writePlan(w http.ResponseWriter, rt *backend.Route, blob []byte) {
	bp := planBufs.Get().(*[]byte)
	buf := append((*bp)[:0], `{"data":{"deliveries":[`...)
	for i, d := range rt.Deliveries {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	buf = append(buf, `],"columns":`...)
	buf = strconv.AppendInt(buf, int64(len(rt.Columns)), 10)
	buf = append(buf, `,"plan":"`...)
	buf = base64.StdEncoding.AppendEncode(buf, blob)
	buf = append(buf, `","backend":`...)
	buf = append(buf, wb.name...)
	if rt.Passes != 0 {
		buf = append(buf, `,"passes":`...)
		buf = strconv.AppendInt(buf, int64(rt.Passes), 10)
	}
	buf = append(buf, `,"cost":`...)
	buf = append(buf, wb.cost...)
	buf = append(buf, "},\"error\":null}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // a failed write means the client is gone
	*bp = buf
	planBufs.Put(bp)
}
