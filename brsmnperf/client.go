package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client is one closed-loop caller with its own keep-alive connection:
// it sends its next request only after the previous answer is read.
type client struct {
	id   int
	base string
	hc   *http.Client
	t    *trace

	buf bytes.Buffer
	// first[k] is the body of the first answer for plan key k (a group at
	// a generation, or a stateless pool entry): the one the output check
	// decodes. Later answers for k must carry the same plan.
	first map[planKey][]byte

	// interval, when non-zero, paces the client: it sends an op no
	// earlier than interval after it sent the previous one, and still only
	// once the previous answer is read. A late answer delays the rest of
	// the trace; there is no catching up in a burst.
	interval time.Duration

	res clientResult
}

type planKey struct {
	stateless bool
	group     int32
	gen       int32
}

// span is one timed request: what it was, when it started and ended
// (nanoseconds since the timed phase began), the bytes it read and, for a
// plan fetch, whether the daemon answered with "cached": false.
type span struct {
	kind       opKind
	start, end int64
	bytes      int32
	uncached   bool
}

type clientResult struct {
	attempted, failed int
	spans             []span
	firstErr          string
	late              int // paced ops sent later than one interval after the previous one
}

func newClient(id int, base string, t *trace) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		id:    id,
		base:  base,
		hc:    &http.Client{Transport: tr, Timeout: 10 * time.Second},
		t:     t,
		first: make(map[planKey][]byte),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(format string, a ...any) {
	c.res.failed++
	if c.res.firstErr == "" {
		c.res.firstErr = fmt.Sprintf("client %d: "+format, append([]any{c.id}, a...)...)
	}
}

// run executes ops in order. When record is set, each request is kept
// as a span relative to t0. turn, when non-nil, makes the two clients
// alternate bursts: a client takes turn[id] before a burst's first op and
// hands turn[1-id] on after its last.
func (c *client) run(ctx context.Context, ops []op, t0 time.Time, record bool, turn *[clients]chan struct{}) {
	if record {
		c.res.spans = make([]span, 0, len(ops))
	}
	burstStart := true
	// The second client starts half an interval after the first.
	next := t0.Add(c.interval * time.Duration(c.id) / clients)
	for i := range ops {
		o := &ops[i]
		if turn != nil && burstStart {
			select {
			case <-turn[c.id]:
			case <-ctx.Done():
				return
			}
		}
		if c.interval > 0 {
			if wait := time.Until(next); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			} else if i > 0 {
				c.res.late++
			}
		}
		if ctx.Err() != nil {
			return
		}
		s := time.Now()
		next = s.Add(c.interval)
		n, uncached := c.do(o)
		e := time.Now()
		if record {
			c.res.spans = append(c.res.spans, span{kind: o.kind, start: s.Sub(t0).Nanoseconds(),
				end: e.Sub(t0).Nanoseconds(), bytes: int32(n), uncached: uncached})
		}
		burstStart = o.burstEnd
		if turn != nil && o.burstEnd {
			turn[1-c.id] <- struct{}{}
		}
	}
}

// do sends one op and checks its status and answer. It returns the
// response bytes read and whether a plan fetch was served uncached.
func (c *client) do(o *op) (n int, uncached bool) {
	c.res.attempted++
	var g groupSpec
	if o.kind != opStateless {
		g = c.t.groups[o.group]
	}
	var (
		method, path string
		body         []byte
		want         int
	)
	switch o.kind {
	case opCreate:
		method, path, want = http.MethodPost, "/v1/groups", http.StatusCreated
		body, _ = json.Marshal(map[string]any{"id": g.id, "source": g.source, "members": g.members})
	case opPlan:
		method, path, want = http.MethodGet, "/v1/groups/"+g.id+"/plan", http.StatusOK
	case opJoin:
		method, path, want = http.MethodPost, "/v1/groups/"+g.id+"/join", http.StatusOK
		body = []byte(`{"dest":` + strconv.Itoa(int(o.dest)) + `}`)
	case opLeave:
		method, path, want = http.MethodPost, "/v1/groups/"+g.id+"/leave", http.StatusOK
		body = []byte(`{"dest":` + strconv.Itoa(int(o.dest)) + `}`)
	case opStateless:
		method, path, want = http.MethodPost, "/v1/plan", http.StatusOK
		body = c.t.poolBody[o.group]
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return 0, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return 0, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	n = c.buf.Len()
	if err != nil {
		c.fail("%s %s: read body: %v", method, path, err)
		return n, false
	}
	if resp.StatusCode != want {
		c.fail("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, c.buf.Bytes())
		return n, false
	}
	b := c.buf.Bytes()
	switch o.kind {
	case opJoin, opLeave:
		var u struct {
			Data struct {
				Gen  int32 `json:"gen"`
				Size int32 `json:"size"`
			} `json:"data"`
		}
		if err := json.Unmarshal(b, &u); err != nil || u.Data.Gen != o.gen || u.Data.Size != o.size {
			c.fail("%s %s: got %.200s, want gen %d size %d", method, path, b, o.gen, o.size)
		}
	case opPlan:
		if gen, ok := intField(b, `"gen":`); !ok || gen != int(o.gen) {
			c.fail("%s: gen %d, want %d", path, gen, o.gen)
			return n, false
		}
		c.keep(planKey{group: o.group, gen: o.gen}, o.expect >= 0, b, path)
		uncached = bytes.Contains(b, []byte(`"cached":false`))
	case opStateless:
		c.keep(planKey{stateless: true, group: o.group}, o.expect >= 0, b, path)
	}
	return n, uncached
}

// keep stores the first answer for k for the output check after the
// run, and checks that any later answer carries the same plan.
func (c *client) keep(k planKey, first bool, b []byte, path string) {
	if first {
		c.first[k] = append([]byte(nil), b...)
		return
	}
	prev, ok := c.first[k]
	if !ok {
		c.fail("%s: answer with no first answer to compare", path)
		return
	}
	if !bytes.Equal(strField(prev, `"plan":"`), strField(b, `"plan":"`)) {
		c.fail("%s: plan differs from the first answer for the same input", path)
	}
}

// intField returns the integer after the first occurrence of key.
func intField(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.Atoi(string(b[:j]))
	return v, err == nil
}

// strField returns the JSON string value after the first occurrence of
// key (which ends in the opening quote); base64 needs no unescaping.
func strField(b []byte, key string) []byte {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil
	}
	b = b[i+len(key):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return nil
	}
	return b[:j]
}
