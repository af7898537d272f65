package shard

// Tests for the asynchronous (ticketed) admission path: lifecycle and
// result parity with the sync path, registry bounds, and the large
// -race soak that holds ≥10k tickets in flight with concurrent
// cancellations and a drain.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brsmn/internal/groupd"
	"brsmn/internal/store"
)

func TestSubmitLifecycle(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})

	tk, err := s.SubmitCreate("", 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID() == "" || tk.Op() != "create" || tk.Group() == "" {
		t.Fatalf("create ticket = %q op %q group %q", tk.ID(), tk.Op(), tk.Group())
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tk.Err(); err != nil {
		t.Fatal(err)
	}
	info, ok := tk.Info()
	if !ok || info.ID != tk.Group() {
		t.Fatalf("create result = %+v ok=%v", info, ok)
	}
	id := info.ID

	// The registry serves the completed ticket back by ID.
	got, err := s.Ticket(tk.ID())
	if err != nil || got != tk {
		t.Fatalf("Ticket(%q) = %v, %v", tk.ID(), got, err)
	}
	if _, err := s.Ticket("t999999"); !errors.Is(err, ErrNoSuchTicket) {
		t.Fatalf("unknown ticket: %v", err)
	}

	jk, err := s.SubmitJoin(id, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := jk.Wait(context.Background()); err != nil || jk.Err() != nil {
		t.Fatalf("join: wait %v err %v", err, jk.Err())
	}
	if up, ok := jk.Update(); !ok || up.Gen != 2 {
		t.Fatalf("join result = %+v ok=%v", up, ok)
	}

	// Stage stamps are monotonic once done.
	st := jk.Stamps()
	if !(st.Submitted > 0 && st.Submitted <= st.Enqueued && st.Enqueued <= st.Drained &&
		st.Drained <= st.Execed && st.Execed <= st.Done) {
		t.Fatalf("stamps not monotonic: %+v", st)
	}

	// A failing op surfaces its error through the ticket.
	bad, err := s.SubmitPlan("no-such-group")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(bad.Err(), groupd.ErrNotFound) {
		t.Fatalf("plan on missing group: %v", bad.Err())
	}

	dk, err := s.SubmitDelete(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := dk.Wait(context.Background()); err != nil || dk.Err() != nil {
		t.Fatalf("delete: wait %v err %v", err, dk.Err())
	}
	if _, err := s.Get(id); !errors.Is(err, groupd.ErrNotFound) {
		t.Fatalf("group survived async delete: %v", err)
	}
}

// TestAsyncMatchesSyncPlan pins result parity: the plan blob a ticket
// carries is byte-identical to what the synchronous path returns.
func TestAsyncMatchesSyncPlan(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	if _, err := s.Create(context.Background(), "par", 0, []int{1, 5, 9}); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Plan(context.Background(), "par")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.SubmitPlan("par")
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil || tk.Err() != nil {
		t.Fatalf("wait %v err %v", err, tk.Err())
	}
	ap, ok := tk.Plan()
	if !ok {
		t.Fatal("ticket carries no plan")
	}
	if !bytes.Equal(sp.Blob, ap.Blob) || sp.Gen != ap.Gen {
		t.Fatalf("async plan differs: sync gen %d (%d bytes), async gen %d (%d bytes)",
			sp.Gen, len(sp.Blob), ap.Gen, len(ap.Blob))
	}
}

// TestTicketRegistryBounds exercises the registry directly: node-scoped
// IDs, the open-ticket limit, cap-pressure eviction of completed
// tickets, and TTL pruning.
func TestTicketRegistryBounds(t *testing.T) {
	r := newTicketRegistry(2, time.Hour, "n1")
	a, err := r.add(opPlan, "g1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "t1@n1" {
		t.Fatalf("node-scoped ID = %q", a.ID())
	}
	b, err := r.add(opPlan, "g2", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both slots open: a third submission sheds.
	if _, err := r.add(opPlan, "g3", 0); !errors.Is(err, ErrTicketLimit) {
		t.Fatalf("over-cap add: %v", err)
	}
	// Completing one frees it for cap-pressure eviction.
	a.complete(&task{op: opPlan})
	if _, err := r.add(opPlan, "g4", 0); err != nil {
		t.Fatalf("add after completion: %v", err)
	}
	if _, err := r.get(a.id); !errors.Is(err, ErrNoSuchTicket) {
		t.Fatal("completed ticket survived cap-pressure eviction")
	}
	st := r.stats()
	if st.Open != 2 || st.Evicted != 1 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}

	// A shed submission must free its open slot.
	r.remove(b)
	if st := r.stats(); st.Open != 1 {
		t.Fatalf("open after remove = %d, want 1", st.Open)
	}

	// TTL pruning: with a zero TTL every completed ticket is already
	// expired the next time the registry is touched.
	r2 := newTicketRegistry(8, 0, "")
	d, err := r2.add(opPlan, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	d.complete(&task{op: opPlan})
	if _, err := r2.add(opPlan, "g2", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.get(d.id); !errors.Is(err, ErrNoSuchTicket) {
		t.Fatal("expired ticket survived TTL prune")
	}
}

// gateStore wraps a Store so the test can stall every mutation append:
// while the gate is held, shard workers block inside exec and admitted
// work piles up as open tickets.
type gateStore struct {
	store.Store
	gate *sync.RWMutex
}

func (g *gateStore) Append(rec store.Record) (uint64, error) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.Store.Append(rec)
}

// TestAsyncSoak is the -race soak from the acceptance bar: more than
// ten thousand tickets in flight at once, synchronous cancellations
// racing the workers, and a quarantine/reinstate drain while the
// backlog executes. Afterwards every counter must reconcile exactly and
// no goroutine may leak.
func TestAsyncSoak(t *testing.T) {
	const (
		seedCount  = 64
		nTickets   = 12000
		submitters = 16
		nCancel    = 200
	)
	var gate sync.RWMutex
	baseline := runtime.NumGoroutine()

	s, err := New(Config{
		Shards:     2,
		QueueDepth: 16384,
		BatchMax:   64,
		TicketCap:  32768,
		TicketTTL:  time.Hour,
		AdmitWait:  10 * time.Millisecond,
		Group:      groupd.Config{N: 64},
		NewStore: func(int) (store.Store, error) {
			return &gateStore{Store: store.NewMem(), gate: &gate}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([]string, seedCount)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak-g%02d", i)
		if _, err := s.Create(context.Background(), ids[i], 0, []int{1 + i%4}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Plan(context.Background(), ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the WAL gate: the first mutating task per shard blocks inside
	// exec, everything behind it queues, and open tickets accumulate.
	gate.Lock()

	tickets := make([]*Ticket, nTickets)
	var submitErrs atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nTickets; i += submitters {
				tk, err := s.SubmitJoin(ids[i%seedCount], 2+i%62)
				if err != nil {
					submitErrs.Add(1)
					continue
				}
				tickets[i] = tk
			}
		}(w)
	}
	wg.Wait()
	if n := submitErrs.Load(); n != 0 {
		t.Fatalf("%d submissions failed below the shed threshold", n)
	}
	if open := s.TicketStats().Open; open < 10000 {
		t.Fatalf("only %d tickets in flight, want >= 10000", open)
	}

	// Synchronous joins with short deadlines, stuck behind the gated
	// backlog: each must come back with the context error, having
	// abandoned its pooled task to the worker.
	var syncCanceled, syncOK atomic.Uint64
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nCancel; i += submitters {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				_, err := s.Join(ctx, ids[i%seedCount], 2+i%62)
				cancel()
				switch {
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					syncCanceled.Add(1)
				case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed):
					t.Errorf("sync join shed below threshold: %v", err)
				default:
					syncOK.Add(1) // executed (possibly a membership error)
				}
			}
		}(w)
	}
	wg.Wait()

	// Release the backlog; drain one shard mid-flight.
	gate.Unlock()
	quarDone := make(chan error, 1)
	go func() {
		if err := s.Quarantine(1); err != nil {
			quarDone <- err
			return
		}
		quarDone <- s.Reinstate(1)
	}()

	waitCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var ticketDone uint64
	for i, tk := range tickets {
		if err := tk.Wait(waitCtx); err != nil {
			t.Fatalf("ticket %d (%s) never completed: %v", i, tk.ID(), err)
		}
		ticketDone++
		st := tk.Stamps()
		if !(st.Submitted > 0 && st.Submitted <= st.Enqueued && st.Enqueued <= st.Drained &&
			st.Drained <= st.Execed && st.Execed <= st.Done) {
			t.Fatalf("ticket %d stamps not monotonic: %+v", i, st)
		}
	}
	if err := <-quarDone; err != nil {
		t.Fatalf("drain during soak: %v", err)
	}

	// Exact reconciliation: every admitted operation is a seed create or
	// warm plan, a completed ticket, or a sync join that executed; every
	// context-error return was counted canceled; nothing shed.
	st := s.Stats()
	var admitted, canceled, shed uint64
	for _, ss := range st.PerShard {
		admitted += ss.Admitted
		canceled += ss.Canceled
		shed += ss.Shed
	}
	wantAdmitted := uint64(2*seedCount) + ticketDone + syncOK.Load()
	if admitted != wantAdmitted {
		t.Fatalf("admitted = %d, want %d (tickets %d, syncOK %d, syncCanceled %d)",
			admitted, wantAdmitted, ticketDone, syncOK.Load(), syncCanceled.Load())
	}
	if canceled != syncCanceled.Load() {
		t.Fatalf("canceled counter = %d, want %d", canceled, syncCanceled.Load())
	}
	if shed != 0 {
		t.Fatalf("shed %d operations below threshold", shed)
	}
	if ts := s.TicketStats(); ts.Open != 0 || ts.PeakOpen < 10000 {
		t.Fatalf("ticket stats after drain = %+v", ts)
	}

	// Every group is still coherent after the churn: plans compute.
	for _, id := range ids {
		if _, err := s.Plan(context.Background(), id); err != nil {
			t.Fatalf("plan %q after soak: %v", id, err)
		}
	}

	// No leaked goroutines once the set closes.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitClosed checks the async surface after Close.
func TestSubmitClosed(t *testing.T) {
	s := newTestSet(t, Config{Shards: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitPlan("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}
