package shard

// Asynchronous admission. Submit* methods place a task on the owning
// shard's queue exactly like the synchronous path but return a Ticket
// immediately instead of blocking the caller; the shard worker
// publishes the result (and the full stage-timing record) to the
// ticket when the batch executes. Clients retrieve completion by
// polling Set.Ticket / Ticket.Wait or by selecting on Ticket.DoneCh —
// the HTTP layer builds long-poll and SSE on top of the latter.
//
// Tickets live in a bounded registry: open tickets plus completed ones
// retained for Config.TicketTTL so a client that submitted before a
// disconnect can still collect the result. When the registry is full,
// the oldest completed ticket is evicted to make room; if every slot is
// an open ticket, submission sheds with ErrTicketLimit — the async
// path's second backpressure surface besides queue-full ErrOverloaded.
//
// Memory model: the worker writes every result field and stage stamp
// before closing doneCh, and readers access them only after observing
// the close (Done/Wait/DoneCh), so no further locking is needed on the
// ticket itself.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"brsmn/internal/groupd"
)

// Async-admission sentinels.
var (
	// ErrTicketLimit is registry overflow — every tracked ticket is
	// still open. The API maps it to 429, like ErrOverloaded.
	ErrTicketLimit = errors.New("shard: ticket registry full")
	// ErrNoSuchTicket reports an unknown (or already evicted) ticket ID.
	ErrNoSuchTicket = errors.New("shard: no such ticket")
)

// TicketStamps is one admitted operation's stage-timing record, Unix
// nanoseconds. Zero fields mean the stage has not happened yet (only
// possible on an open ticket). Derived durations: queue wait =
// Drained-Enqueued, execution = Execed-Drained (the batch's earlier
// tasks execute within this window too), delivery = Done-Execed.
type TicketStamps struct {
	Submitted int64 `json:"submittedNs"` // ticket issued
	Enqueued  int64 `json:"enqueuedNs"`  // task placed on the shard queue
	Drained   int64 `json:"drainedNs"`   // worker drained its batch
	Execed    int64 `json:"execedNs"`    // manager call finished
	Done      int64 `json:"doneNs"`      // result published to the ticket
}

// Ticket is one asynchronous admission: identity and placement are
// fixed at submit; results and stamps become readable once Done.
type Ticket struct {
	id    string
	op    opKind
	group string
	shard int

	// Result fields, written by the worker before doneCh closes. The
	// has* booleans report which shape the op produced.
	resInfo groupd.GroupInfo
	resUp   groupd.Update
	resPlan groupd.PlanInfo
	hasInfo bool
	hasUp   bool
	hasPlan bool
	stamp   TicketStamps
	done    int64 // == stamp.Done; kept flat for the signal histogram
	err     error

	doneCh chan struct{}
	reg    *ticketRegistry
}

// complete publishes an executed task's outcome to the ticket. Called
// exactly once, by the shard worker, which then recycles the task —
// everything the client may read is copied here.
func (tk *Ticket) complete(t *task) {
	tk.stamp.Enqueued = t.enq
	tk.stamp.Drained = t.drained
	tk.stamp.Execed = t.execed
	tk.err = t.err
	switch t.op {
	case opCreate:
		tk.hasInfo = true
		tk.resInfo = t.info
	case opJoin, opLeave:
		tk.hasUp = true
		tk.resUp = t.up
	case opPlan:
		tk.hasPlan = true
		tk.resPlan = t.plan
	}
	now := time.Now().UnixNano()
	tk.stamp.Done = now
	tk.done = now
	close(tk.doneCh)
	tk.reg.noteDone(tk)
}

// ID returns the ticket's identifier ("t<seq>" or "t<seq>@<node>").
func (tk *Ticket) ID() string { return tk.id }

// Group returns the group the operation targets.
func (tk *Ticket) Group() string { return tk.group }

// Op returns the operation kind ("create", "join", ...).
func (tk *Ticket) Op() string { return tk.op.String() }

// Shard returns the shard the operation was placed on.
func (tk *Ticket) Shard() int { return tk.shard }

// Done reports whether the result has been published.
func (tk *Ticket) Done() bool {
	select {
	case <-tk.doneCh:
		return true
	default:
		return false
	}
}

// DoneCh closes when the result is published — the select surface for
// long-poll and SSE.
func (tk *Ticket) DoneCh() <-chan struct{} { return tk.doneCh }

// Wait blocks until the result is published or ctx ends.
func (tk *Ticket) Wait(ctx context.Context) error {
	select {
	case <-tk.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the operation's error. Valid only after Done.
func (tk *Ticket) Err() error { return tk.err }

// Info returns the create result. Valid only after Done; ok is false
// for other ops.
func (tk *Ticket) Info() (groupd.GroupInfo, bool) { return tk.resInfo, tk.hasInfo }

// Update returns the join/leave result. Valid only after Done.
func (tk *Ticket) Update() (groupd.Update, bool) { return tk.resUp, tk.hasUp }

// Plan returns the plan result. Valid only after Done.
func (tk *Ticket) Plan() (groupd.PlanInfo, bool) { return tk.resPlan, tk.hasPlan }

// Stamps returns the stage-timing record. Before Done, only Submitted
// (and possibly Enqueued, observed racily as zero) are meaningful.
func (tk *Ticket) Stamps() TicketStamps {
	if tk.Done() {
		return tk.stamp
	}
	return TicketStamps{Submitted: tk.stamp.Submitted}
}

// ticketRegistry tracks every live ticket: open ones by ID plus a FIFO
// of completed ones awaiting TTL expiry or cap-pressure eviction.
type ticketRegistry struct {
	mu        sync.Mutex
	cap       int
	ttl       time.Duration
	node      string
	seq       uint64
	m         map[string]*Ticket
	completed []*Ticket // FIFO in completion order
	open      int
	peakOpen  int
	submitted uint64
	evicted   uint64
}

func newTicketRegistry(capacity int, ttl time.Duration, node string) *ticketRegistry {
	return &ticketRegistry{
		cap:  capacity,
		ttl:  ttl,
		node: node,
		m:    make(map[string]*Ticket),
	}
}

// add registers a new open ticket, evicting completed ones as needed.
func (r *ticketRegistry) add(op opKind, group string, shard int) (*Ticket, error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(now.UnixNano())
	for len(r.m) >= r.cap && len(r.completed) > 0 {
		r.evictOldestLocked()
	}
	if len(r.m) >= r.cap {
		return nil, ErrTicketLimit
	}
	r.seq++
	id := fmt.Sprintf("t%d", r.seq)
	if r.node != "" {
		id += "@" + r.node
	}
	tk := &Ticket{
		id:     id,
		op:     op,
		group:  group,
		shard:  shard,
		doneCh: make(chan struct{}),
		reg:    r,
	}
	tk.stamp.Submitted = now.UnixNano()
	r.m[id] = tk
	r.open++
	if r.open > r.peakOpen {
		r.peakOpen = r.open
	}
	r.submitted++
	return tk, nil
}

// remove drops a ticket whose submission failed after registration
// (queue shed): it never completes, so it must not leak an open slot.
func (r *ticketRegistry) remove(tk *Ticket) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[tk.id]; ok {
		delete(r.m, tk.id)
		r.open--
	}
}

// noteDone moves a ticket from open to retained-completed.
func (r *ticketRegistry) noteDone(tk *Ticket) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[tk.id]; !ok {
		return // raced with remove; nothing to retain
	}
	r.open--
	r.completed = append(r.completed, tk)
	r.pruneLocked(time.Now().UnixNano())
}

// get looks a ticket up by ID.
func (r *ticketRegistry) get(id string) (*Ticket, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tk, ok := r.m[id]
	if !ok {
		return nil, ErrNoSuchTicket
	}
	return tk, nil
}

// pruneLocked evicts completed tickets past their TTL.
func (r *ticketRegistry) pruneLocked(nowNs int64) {
	cutoff := nowNs - r.ttl.Nanoseconds()
	for len(r.completed) > 0 && r.completed[0].done <= cutoff {
		r.evictOldestLocked()
	}
}

// evictOldestLocked drops the oldest completed ticket.
func (r *ticketRegistry) evictOldestLocked() {
	tk := r.completed[0]
	r.completed[0] = nil
	r.completed = r.completed[1:]
	delete(r.m, tk.id)
	r.evicted++
}

// stats snapshots the registry counters.
func (r *ticketRegistry) stats() TicketStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return TicketStats{
		Open:      r.open,
		PeakOpen:  r.peakOpen,
		Retained:  len(r.completed),
		Submitted: r.submitted,
		Evicted:   r.evicted,
		Cap:       r.cap,
	}
}

// TicketStats is the registry's externally visible state.
type TicketStats struct {
	Open      int    `json:"open"`
	PeakOpen  int    `json:"peakOpen"`
	Retained  int    `json:"retained"`
	Submitted uint64 `json:"submitted"`
	Evicted   uint64 `json:"evicted"`
	Cap       int    `json:"cap"`
}

// QueueStats is one shard's admission-queue backpressure view, returned
// alongside a freshly issued ticket so clients see depth and shed state
// in the 202 response.
type QueueStats struct {
	Shard    int    `json:"shard"`
	Len      int    `json:"len"`
	Depth    int    `json:"depth"`
	Shed     uint64 `json:"shed"`
	Canceled uint64 `json:"canceled"`
}

// --- Set async surface ---

// submit places t asynchronously: a ticket is issued under the
// placement read lock, the task is enqueued non-blocking, and the
// ticket returned immediately. A full queue sheds at once — no
// AdmitWait window — because an async client already owns a retry
// loop, and blocking the submit handler would reintroduce exactly the
// blocked-handler problem the ticket path removes.
func (s *Set) submit(t *task) (*Ticket, error) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	sh, err := s.locate(t.id)
	if err != nil {
		return nil, err
	}
	tk, err := s.tickets.add(t.op, t.id, sh.id)
	if err != nil {
		return nil, err
	}
	t.tk = tk
	t.enq = time.Now().UnixNano()
	select {
	case sh.queue <- t:
		return tk, nil
	default:
		sh.shed.Add(1)
		s.tickets.remove(tk)
		return nil, ErrOverloaded
	}
}

// SubmitCreate asynchronously registers a group; an empty ID is
// auto-assigned (and readable from the ticket's Group).
func (s *Set) SubmitCreate(id string, source int, members []int) (*Ticket, error) {
	if id == "" {
		id = fmt.Sprintf("g%d", s.nextID.Add(1))
	}
	t := s.getTask()
	t.op = opCreate
	t.id = id
	t.source = source
	t.members = members
	return s.submitTask(t)
}

// SubmitJoin asynchronously admits output d to the group.
func (s *Set) SubmitJoin(id string, d int) (*Ticket, error) {
	t := s.getTask()
	t.op = opJoin
	t.id = id
	t.dest = d
	return s.submitTask(t)
}

// SubmitLeave asynchronously removes output d from the group.
func (s *Set) SubmitLeave(id string, d int) (*Ticket, error) {
	t := s.getTask()
	t.op = opLeave
	t.id = id
	t.dest = d
	return s.submitTask(t)
}

// SubmitDelete asynchronously unregisters the group.
func (s *Set) SubmitDelete(id string) (*Ticket, error) {
	t := s.getTask()
	t.op = opDelete
	t.id = id
	return s.submitTask(t)
}

// SubmitPlan asynchronously requests the group's column program.
func (s *Set) SubmitPlan(id string) (*Ticket, error) {
	t := s.getTask()
	t.op = opPlan
	t.id = id
	return s.submitTask(t)
}

// submitTask runs submit and recycles the task on failure.
func (s *Set) submitTask(t *task) (*Ticket, error) {
	tk, err := s.submit(t)
	if err != nil {
		s.putTask(t)
		return nil, err
	}
	return tk, nil
}

// Ticket returns the ticket with the given ID, or ErrNoSuchTicket.
func (s *Set) Ticket(id string) (*Ticket, error) { return s.tickets.get(id) }

// TicketStats snapshots the ticket registry.
func (s *Set) TicketStats() TicketStats { return s.tickets.stats() }

// QueueStats returns shard i's admission-queue backpressure view.
func (s *Set) QueueStats(i int) (QueueStats, error) {
	if i < 0 || i >= len(s.shards) {
		return QueueStats{}, fmt.Errorf("%w: %d", ErrNoSuchShard, i)
	}
	sh := s.shards[i]
	return QueueStats{
		Shard:    sh.id,
		Len:      len(sh.queue),
		Depth:    cap(sh.queue),
		Shed:     sh.shed.Load(),
		Canceled: sh.canceled.Load(),
	}, nil
}
