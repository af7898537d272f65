package shard

// Batched admission. Every state-touching operation is a pooled task
// enqueued onto the owning shard's bounded queue; the shard's worker
// drains tasks in batches of up to Config.BatchMax and executes them
// against the shard's manager. The fast path — queue has room, task
// pooled — allocates nothing; only the overflow path arms a timer.
//
// Locking: the placement read lock covers exactly locate + enqueue
// (including the bounded backpressure window on a full queue), never
// the wait for execution. A saturated queue therefore cannot starve
// drain/migration's write lock; writers that need a quiesced set flush
// the queues explicitly with a barrier task (see Set.flushLocked).
//
// Cancellation: a synchronous waiter whose context ends mid-flight
// abandons the task by CAS-ing its state from pending to abandoned.
// Exactly one side wins the CAS — the waiter (the worker then recycles
// the task after executing it) or the worker (the result is complete
// and the waiter consumes it normally) — so a canceled request frees
// its slot immediately and never races the pooled task's reuse.
//
// Stage stamps: every task records Unix-ns timestamps at enqueue, batch
// drain, and execution done; the waiter or ticket completion stamps the
// final delivery. The stamps feed the per-shard stage histograms
// (queue wait, execution, completion signal) and the async Ticket's
// client-visible timing record.

import (
	"context"
	"sync/atomic"
	"time"

	"brsmn/internal/groupd"
)

// opKind selects the manager call a task performs. An explicit enum
// (rather than a closure) keeps the admission path allocation-free.
type opKind uint8

const (
	opCreate opKind = iota
	opJoin
	opLeave
	opDelete
	opPlan
	// opBarrier is a no-op used by writers (rebalance, tests) to prove a
	// shard's queue has drained: once the barrier completes, everything
	// enqueued before it has executed.
	opBarrier
)

// String renders the op for ticket views and logs.
func (op opKind) String() string {
	switch op {
	case opCreate:
		return "create"
	case opJoin:
		return "join"
	case opLeave:
		return "leave"
	case opDelete:
		return "delete"
	case opPlan:
		return "plan"
	default:
		return "barrier"
	}
}

// Task completion states, CAS-ed on task.state.
const (
	taskPending   int32 = iota // enqueued, result not yet delivered
	taskDone                   // worker completed it and signaled done
	taskAbandoned              // waiter canceled; the worker recycles it
)

// task is one admitted operation: request fields in, result fields out,
// completion signaled on the reused one-slot done channel (synchronous
// path) or published to the attached ticket (asynchronous path).
type task struct {
	op      opKind
	id      string
	dest    int
	source  int
	members []int

	info groupd.GroupInfo
	up   groupd.Update
	plan groupd.PlanInfo
	err  error

	// Stage stamps, Unix ns. enq is recorded unconditionally at enqueue
	// — the ticket timing record and stage histograms both need it, so
	// it must not depend on whether any histogram is registered.
	enq     int64 // enqueued onto the shard queue
	drained int64 // the worker drained the batch containing it
	execed  int64 // the manager call finished

	// state arbitrates completion between the worker and a canceling
	// waiter; see the package comment.
	state atomic.Int32

	// tk, when non-nil, marks an asynchronous task: the worker publishes
	// the result to the ticket and recycles the task itself.
	tk *Ticket

	done chan struct{}
}

func (s *Set) getTask() *task { return s.tasks.Get().(*task) }

func (s *Set) putTask(t *task) {
	// Drop references so the pool doesn't retain request or plan data.
	t.id = ""
	t.members = nil
	t.info = groupd.GroupInfo{}
	t.up = groupd.Update{}
	t.plan = groupd.PlanInfo{}
	t.err = nil
	t.tk = nil
	t.enq, t.drained, t.execed = 0, 0, 0
	t.state.Store(taskPending)
	select { // drop a stale signal, defensively — completion is CAS-arbitrated
	case <-t.done:
	default:
	}
	s.tasks.Put(t)
}

// enqueue places t on its owning shard's queue. The placement read lock
// is held for exactly locate + the send: a full queue exerts
// backpressure for at most Config.AdmitWait (unless the caller's
// context ends first), then sheds. Returns the owning shard so the
// caller can wait without the lock.
func (s *Set) enqueue(ctx context.Context, t *task) (*Shard, error) {
	s.placeMu.RLock()
	defer s.placeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	sh, err := s.locate(t.id)
	if err != nil {
		return nil, err
	}
	t.enq = time.Now().UnixNano()
	select {
	case sh.queue <- t:
	default:
		// Queue full: backpressure window, then shed. The timer
		// allocation is confined to this slow path.
		timer := time.NewTimer(s.cfg.AdmitWait)
		select {
		case sh.queue <- t:
			timer.Stop()
		case <-timer.C:
			sh.shed.Add(1)
			return nil, ErrOverloaded
		case <-ctx.Done():
			timer.Stop()
			sh.canceled.Add(1)
			return nil, ctx.Err()
		}
	}
	return sh, nil
}

// wait blocks until the enqueued task completes or ctx ends. On
// cancellation the task is abandoned to the worker (which recycles it);
// the caller must not touch t after a non-nil return. A cancellation
// that loses the race against the worker consumes the finished result
// and reports success — the operation did execute.
func (sh *Shard) wait(ctx context.Context, t *task) error {
	select {
	case <-t.done:
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			sh.canceled.Add(1)
			return ctx.Err()
		}
		<-t.done // the worker won: the signal is (or is about to be) buffered
	}
	sh.admitted.Add(1)
	sh.signalHist.Observe(float64(time.Now().UnixNano()-t.execed) / 1e9)
	return nil
}

// admitInfo runs a task returning (GroupInfo, error) — create, delete.
func (s *Set) admitInfo(ctx context.Context, t *task) (groupd.GroupInfo, error) {
	sh, err := s.enqueue(ctx, t)
	if err != nil {
		s.putTask(t)
		return groupd.GroupInfo{}, err
	}
	if err := sh.wait(ctx, t); err != nil {
		return groupd.GroupInfo{}, err // abandoned: the worker recycles t
	}
	info, terr := t.info, t.err
	s.putTask(t)
	return info, terr
}

// admitUpdate runs a task returning (Update, error) — join, leave.
func (s *Set) admitUpdate(ctx context.Context, t *task) (groupd.Update, error) {
	sh, err := s.enqueue(ctx, t)
	if err != nil {
		s.putTask(t)
		return groupd.Update{}, err
	}
	if err := sh.wait(ctx, t); err != nil {
		return groupd.Update{}, err
	}
	up, terr := t.up, t.err
	s.putTask(t)
	return up, terr
}

// admitPlan runs a plan task — the steady route path.
func (s *Set) admitPlan(ctx context.Context, t *task) (groupd.PlanInfo, error) {
	sh, err := s.enqueue(ctx, t)
	if err != nil {
		s.putTask(t)
		return groupd.PlanInfo{}, err
	}
	if err := sh.wait(ctx, t); err != nil {
		return groupd.PlanInfo{}, err
	}
	p, terr := t.plan, t.err
	s.putTask(t)
	return p, terr
}

// flushLocked quiesces every shard's queue. The caller holds the
// placement write lock, so no new admission can start; a barrier task
// enqueued behind the backlog completes only after everything ahead of
// it has executed. No-op before the workers start (recovery-time
// rebalances run single-threaded with empty queues).
func (s *Set) flushLocked() {
	if !s.workersStarted {
		return
	}
	for _, sh := range s.shards {
		t := s.getTask()
		t.op = opBarrier
		t.enq = time.Now().UnixNano()
		sh.queue <- t
		<-t.done
		s.putTask(t)
	}
}

// worker is the shard's admission loop: drain a batch, execute it,
// signal completions. It exits when the queue is closed and drained.
func (sh *Shard) worker() {
	defer close(sh.workerDone)
	max := sh.batchCap
	if cap(sh.queue) < max {
		max = cap(sh.queue)
	}
	batch := make([]*task, 0, max)
	for {
		t, ok := <-sh.queue
		if !ok {
			return
		}
		batch = append(batch[:0], t)
	drain:
		for len(batch) < cap(batch) {
			select {
			case t2, ok2 := <-sh.queue:
				if !ok2 {
					break drain
				}
				batch = append(batch, t2)
			default:
				break drain
			}
		}
		drainNs := time.Now().UnixNano()
		for _, bt := range batch {
			bt.drained = drainNs
			if bt.op == opBarrier {
				bt.execed = drainNs
				sh.finish(bt)
				continue
			}
			sh.waitHist.Observe(float64(drainNs-bt.enq) / 1e9)
			t0 := time.Now()
			sh.exec(bt)
			bt.execed = time.Now().UnixNano()
			sh.execHist.Observe(float64(bt.execed-t0.UnixNano()) / 1e9)
			sh.finish(bt)
		}
		sh.batches.Add(1)
		sh.batchHist.Observe(float64(len(batch)))
	}
}

// finish delivers one executed task: publish to its ticket (async),
// signal the waiter (sync), or — when a canceled waiter abandoned it —
// recycle it. Exactly one of the three happens.
func (sh *Shard) finish(t *task) {
	if tk := t.tk; tk != nil {
		tk.complete(t)
		sh.admitted.Add(1)
		sh.signalHist.Observe(float64(tk.done-t.execed) / 1e9)
		sh.set.putTask(t)
		return
	}
	if t.state.CompareAndSwap(taskPending, taskDone) {
		t.done <- struct{}{}
		return
	}
	// The waiter canceled and abandoned the task; the worker owns it.
	sh.set.putTask(t)
}

// exec dispatches one task against the shard's manager.
func (sh *Shard) exec(t *task) {
	switch t.op {
	case opCreate:
		t.info, t.err = sh.gm.Create(t.id, t.source, t.members)
	case opJoin:
		t.up, t.err = sh.gm.Join(t.id, t.dest)
	case opLeave:
		t.up, t.err = sh.gm.Leave(t.id, t.dest)
	case opDelete:
		t.err = sh.gm.Delete(t.id)
	case opPlan:
		t.plan, t.err = sh.gm.Plan(t.id)
	}
}
