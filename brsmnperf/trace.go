package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// opKind is one kind of request the generator sends.
type opKind uint8

const (
	opCreate    opKind = iota // POST /v1/groups
	opPlan                    // GET /v1/groups/{id}/plan
	opJoin                    // POST /v1/groups/{id}/join
	opLeave                   // POST /v1/groups/{id}/leave
	opStateless               // POST /v1/plan
)

func (k opKind) String() string {
	return [...]string{"create", "plan", "join", "leave", "stateless"}[k]
}

// op is one request of a client's trace together with everything the
// generator knows its answer must be. Every op has exactly one expected
// status, so any other answer is a failure.
type op struct {
	kind  opKind
	group int32 // group index, or the request-pool index for opStateless
	dest  int32 // join/leave destination
	gen   int32 // group generation after a change, or at a plan fetch
	size  int32 // group size after a change
	// expect indexes trace.expect: the membership a plan fetch must
	// deliver. It is set only on the first fetch of a (group, gen); a
	// later fetch of the same (group, gen) must return the same plan.
	expect int32
	// miss is the generator's prediction that a plan fetch misses the
	// daemon's plan cache (the group changed since its last fetch).
	miss bool
	// burstEnd marks the last op of a churn burst, where the client
	// hands its turn to the other client.
	burstEnd bool
}

// groupSpec is a group's identity and initial membership.
type groupSpec struct {
	id      string
	source  int
	members []int
}

// trace is the full, seeded input of one run: the population, each
// client's set-up ops (creates, then warm fetches) and each client's
// timed ops.
type trace struct {
	n      int
	groups []groupSpec
	setup  [clients][]op
	timed  [clients][]op
	// expect[k] is the sorted membership a checked plan must deliver.
	expect [][]int
	// final is every group's sorted membership after the timed ops.
	final [][]int
	// pool holds the stateless requests: dests per assignment and the
	// encoded /v1/plan body.
	pool      [][][]int
	poolBody  [][]byte
	takeTurns bool // clients alternate bursts (churn-replan)
}

const clients = 2

// The seeded generators below track membership exactly: joins pick
// non-members, leaves pick members, and no group is ever emptied.

// member is the generator's view of one group.
type member struct {
	in     []bool
	list   []int // unordered members
	gen    int32
	dirty  bool  // changed since the last fetch of this group
	seenAt int32 // generation of the last fetch, -1 before any
}

func newMember(n int, g groupSpec) *member {
	m := &member{in: make([]bool, n), gen: 1, seenAt: -1}
	for _, d := range g.members {
		m.in[d] = true
		m.list = append(m.list, d)
	}
	return m
}

func (m *member) join(d int) {
	m.in[d] = true
	m.list = append(m.list, d)
	m.gen++
	m.dirty = true
}

func (m *member) leave(i int) int {
	d := m.list[i]
	m.in[d] = false
	m.list[i] = m.list[len(m.list)-1]
	m.list = m.list[:len(m.list)-1]
	m.gen++
	m.dirty = true
	return d
}

// mixer deals op classes in shuffled blocks holding each class its
// exact count, so every trace prefix of whole blocks has the exact mix
// and each class gets a fixed number of samples.
type mixer struct {
	r     *rand.Rand
	block []int
	i     int
}

func newMixer(r *rand.Rand, counts ...int) *mixer {
	m := &mixer{r: r}
	for class, n := range counts {
		for j := 0; j < n; j++ {
			m.block = append(m.block, class)
		}
	}
	m.i = len(m.block)
	return m
}

// next returns the class of the next op.
func (m *mixer) next() int {
	if m.i == len(m.block) {
		m.r.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.i = 0
	}
	m.i++
	return m.block[m.i-1]
}

// builder accumulates a trace.
type builder struct {
	t  *trace
	gs []*member
}

// done records every group's final membership and returns the trace.
func (b *builder) done() *trace {
	for _, m := range b.gs {
		s := append([]int(nil), m.list...)
		sort.Ints(s)
		b.t.final = append(b.t.final, s)
	}
	return b.t
}

func (b *builder) snapshot(m *member) int32 {
	s := append([]int(nil), m.list...)
	sort.Ints(s)
	b.t.expect = append(b.t.expect, s)
	return int32(len(b.t.expect) - 1)
}

// fetch emits a plan fetch of group g. The first fetch of each (group,
// gen) carries the membership the plan must deliver.
func (b *builder) fetch(g int) op {
	m := b.gs[g]
	o := op{kind: opPlan, group: int32(g), gen: m.gen, expect: -1, miss: m.dirty || m.seenAt < 0}
	if m.seenAt != m.gen {
		o.expect = b.snapshot(m)
		m.seenAt = m.gen
	}
	m.dirty = false
	return o
}

// change emits a join (or a leave) on group g, turning a leave that
// would empty the group into a join, and a join on a full group into a
// leave.
func (b *builder) change(r *rand.Rand, g int, join bool) op {
	m := b.gs[g]
	if len(m.list) <= 1 {
		join = true
	}
	if len(m.list) >= b.t.n {
		join = false
	}
	o := op{kind: opLeave, group: int32(g), expect: -1}
	if join {
		d := r.Intn(b.t.n)
		for m.in[d] {
			d = r.Intn(b.t.n)
		}
		m.join(d)
		o.kind, o.dest = opJoin, int32(d)
	} else {
		o.dest = int32(m.leave(r.Intn(len(m.list))))
	}
	o.gen, o.size = m.gen, int32(len(m.list))
	return o
}

// population makes count groups with distinct IDs, random sources and
// sizes drawn by size(r).
func (b *builder) population(r *rand.Rand, count int, size func(*rand.Rand) int) {
	n := b.t.n
	for i := 0; i < count; i++ {
		k := size(r)
		perm := r.Perm(n)[:k]
		sort.Ints(perm)
		g := groupSpec{id: fmt.Sprintf("g%05d", i), source: r.Intn(n), members: perm}
		b.t.groups = append(b.t.groups, g)
		b.gs = append(b.gs, newMember(n, g))
	}
}

// The group model is brsmnload's default one, so the benchmark and the
// repository's load generator describe the same traffic: group sizes are
// Zipf with exponent loadZipfS and offset loadZipfV, capped at n/2, and
// group popularity is Zipf with the same parameters.
const (
	loadZipfS = 1.3
	loadZipfV = 2
)

// loadSizes draws group sizes from brsmnload's default size model.
func loadSizes(r *rand.Rand, n int) func(*rand.Rand) int {
	z := rand.NewZipf(r, loadZipfS, loadZipfV, uint64(n/2-1))
	return func(*rand.Rand) int { return 1 + int(z.Uint64()) }
}

// loadPopularity returns a picker over groups with brsmnload's default
// popularity model. The popularity ranks are a seeded permutation of
// groups, so the hot groups are not the ones created first.
func loadPopularity(r *rand.Rand, groups []int) func() int {
	rank := r.Perm(len(groups))
	z := rand.NewZipf(r, loadZipfS, loadZipfV, uint64(len(groups)-1))
	return func() int { return groups[rank[z.Uint64()]] }
}

// owned returns the group indices client c owns: every clients-th one.
// The halves are disjoint, so each client's cache outcomes depend only
// on its own trace.
func owned(count, c int) []int {
	var out []int
	for g := c; g < count; g += clients {
		out = append(out, g)
	}
	return out
}

// createOps emits client c's creates.
func (b *builder) createOps(c int) {
	for _, g := range owned(len(b.gs), c) {
		b.t.setup[c] = append(b.t.setup[c], op{kind: opCreate, group: int32(g), expect: -1})
	}
}

// readHotTrace: `groups` groups of the load model's sizes, fetched with
// its popularity; exactly 90% plan fetches, 5% joins, 5% leaves. Every
// group's plan is fetched once during set-up, so a timed fetch misses
// only after a change.
//
// The daemon keeps one retained route for its patch path, shared by
// both clients; whether a miss patches depends on which miss came just
// before it, across clients. The generator therefore never lets one
// client miss twice in a row on the same group, so no timed fetch can
// patch and the replan count is a function of the trace alone.
func readHotTrace(seed int64, n, groups, opsPerClient int) *trace {
	r := rand.New(rand.NewSource(seed))
	b := &builder{t: &trace{n: n}}
	b.population(r, groups, loadSizes(r, n))
	for c := 0; c < clients; c++ {
		b.createOps(c)
		mine := owned(groups, c)
		var last int32 = -1
		for _, g := range mine {
			o := b.fetch(g)
			b.t.setup[c] = append(b.t.setup[c], o)
			last = o.group
		}
		pick := loadPopularity(r, mine)
		ops := make([]op, 0, opsPerClient)
		mix := newMixer(r, 18, 1, 1) // exactly 90% fetches, 5% joins, 5% leaves
		for len(ops) < opsPerClient {
			switch mix.next() {
			case 0:
				g := pick()
				for int32(g) == last && b.gs[g].dirty {
					g = pick()
				}
				o := b.fetch(g)
				if o.miss {
					last = o.group
				}
				ops = append(ops, o)
			case 1:
				ops = append(ops, b.change(r, pick(), true))
			default:
				ops = append(ops, b.change(r, pick(), false))
			}
		}
		b.t.timed[c] = ops
	}
	return b.done()
}

// burstLen is the number of changes in a churn burst. With a fixed
// length, about three fetches in four can patch, so the plan-latency
// median sits inside the patched mode instead of on the boundary between
// patched and fully replanned fetches, where a small shift in the patch
// ratio would move it far.
const burstLen = 4

// churnTrace: `groups` groups of the load model's sizes, more than the
// plan cache holds. Clients alternate bursts: a burst picks one group by
// the load model's popularity and applies burstLen changes, each a join
// or a leave with equal odds (as in brsmnload's videoconf mix) and each
// followed by a plan fetch, so every timed fetch misses and the later
// fetches of a burst can patch the route the first one left behind.
// Taking turns makes the sequence of misses the daemon sees a function of
// the trace alone. Set-up warms `warm` plans per
// client, enough to fill the cache. Both clients get `bursts` bursts.
func churnTrace(seed int64, n, groups, warm, bursts int) *trace {
	r := rand.New(rand.NewSource(seed))
	b := &builder{t: &trace{n: n, takeTurns: true}}
	b.population(r, groups, loadSizes(r, n))
	for c := 0; c < clients; c++ {
		b.createOps(c)
		mine := owned(groups, c)
		for _, g := range mine[:warm] {
			b.t.setup[c] = append(b.t.setup[c], b.fetch(g))
		}
		pick := loadPopularity(r, mine)
		last := mine[warm-1]
		var ops []op
		for done := 0; done < bursts; {
			g := pick()
			if g == last {
				continue
			}
			last = -1
			for i := 0; i < burstLen; i++ {
				ops = append(ops, b.change(r, g, r.Intn(2) == 0), b.fetch(g))
			}
			ops[len(ops)-1].burstEnd = true
			done++
		}
		b.t.timed[c] = ops
	}
	return b.done()
}

// statelessTrace: dense n-port assignments, each output claimed by one
// of `sources` inputs, posted to POST /v1/plan; one request in three is
// a join or leave on the client's one group, so change
// acknowledgements are measured under planning load. Each client cycles
// a pool of `pool` distinct requests, all posted once during set-up.
func statelessTrace(seed int64, n, sources, pool, opsPerClient int) *trace {
	r := rand.New(rand.NewSource(seed))
	b := &builder{t: &trace{n: n}}
	b.population(r, clients, loadSizes(r, n))
	for i := 0; i < clients*pool; i++ {
		srcs := r.Perm(n)[:sources]
		dests := make([][]int, n)
		for out := 0; out < n; out++ {
			s := srcs[r.Intn(sources)]
			dests[s] = append(dests[s], out)
		}
		body, err := json.Marshal(struct {
			N     int     `json:"n"`
			Dests [][]int `json:"dests"`
		}{n, dests})
		if err != nil {
			panic(err) // marshalling ints cannot fail
		}
		b.t.pool = append(b.t.pool, dests)
		b.t.poolBody = append(b.t.poolBody, body)
	}
	for c := 0; c < clients; c++ {
		b.createOps(c)
		for k := c * pool; k < (c+1)*pool; k++ {
			b.t.setup[c] = append(b.t.setup[c], op{kind: opStateless, group: int32(k), expect: int32(k)})
		}
		ops := make([]op, 0, opsPerClient)
		mix := newMixer(r, 4, 1, 1) // exactly two requests in three are plans
		for len(ops) < opsPerClient {
			if k := mix.next(); k > 0 {
				ops = append(ops, b.change(r, c, k == 1))
				continue
			}
			ops = append(ops, op{kind: opStateless, group: int32(c*pool + r.Intn(pool)), expect: -1})
		}
		b.t.timed[c] = ops
	}
	return b.done()
}
