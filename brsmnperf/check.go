package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sync"

	"brsmn/internal/bsn"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
)

// checkOutputs checks every plan the timed phase received. The first
// answer for each (group, generation), or for each stateless request, is
// decoded with plancodec.Decode and run through fabric.Run: a group plan
// must deliver exactly the group's members from its source at that
// generation, a stateless plan exactly the request's dests. Every later
// answer for the same input was already compared byte for byte with that
// first one while it was read. A first answer from set-up is checked
// when the timed phase fetched the same input. It runs after the timed
// phase, on `workers` goroutines, and returns the number of plans
// checked and the failures.
func checkOutputs(t *trace, cs []*client, workers int) (checked int, failures []string) {
	type job struct {
		k    planKey
		body []byte
		// expect is the membership (group plans) or -1 (stateless).
		expect int32
	}
	expectOf := map[planKey]int32{}
	used := map[planKey]bool{}
	for c := range cs {
		for _, o := range t.setup[c] {
			if o.kind == opPlan && o.expect >= 0 {
				expectOf[planKey{group: o.group, gen: o.gen}] = o.expect
			}
		}
		for _, o := range t.timed[c] {
			switch o.kind {
			case opPlan:
				k := planKey{group: o.group, gen: o.gen}
				used[k] = true
				if o.expect >= 0 {
					expectOf[k] = o.expect
				}
			case opStateless:
				used[planKey{stateless: true, group: o.group}] = true
			}
		}
	}
	jobs := make(chan job)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ex fabric.Executor
			for j := range jobs {
				var err error
				if j.k.stateless {
					err = checkPlan(&ex, j.body, t.n, t.pool[j.k.group])
				} else {
					g := t.groups[j.k.group]
					dests := make([][]int, t.n)
					dests[g.source] = t.expect[j.expect]
					err = checkPlan(&ex, j.body, t.n, dests)
				}
				mu.Lock()
				checked++
				if err != nil {
					failures = append(failures, fmt.Sprintf("plan %+v: %v", j.k, err))
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cs {
		for k, body := range c.first {
			if !used[k] {
				continue
			}
			e := int32(-1)
			if !k.stateless {
				var ok bool
				if e, ok = expectOf[k]; !ok {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("plan %+v: no expected membership", k))
					mu.Unlock()
					continue
				}
			}
			jobs <- job{k: k, body: body, expect: e}
		}
	}
	close(jobs)
	wg.Wait()
	return checked, failures
}

// checkPlan decodes the envelope's base64 plancodec program and replays
// it on the cells of the expected assignment; every output must receive
// exactly its expected source, and every other output nothing.
func checkPlan(ex *fabric.Executor, body []byte, n int, dests [][]int) error {
	var env struct {
		Data struct {
			Plan    string `json:"plan"`
			Columns int    `json:"columns"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("envelope: %w", err)
	}
	blob, err := base64.StdEncoding.DecodeString(env.Data.Plan)
	if err != nil {
		return fmt.Errorf("base64: %w", err)
	}
	pn, cols, err := plancodec.Decode(blob)
	if err != nil {
		return fmt.Errorf("plancodec: %w", err)
	}
	if pn != n || len(cols) != env.Data.Columns {
		return fmt.Errorf("decoded n=%d columns=%d, envelope says n=%d columns=%d", pn, len(cols), n, env.Data.Columns)
	}
	a, err := mcast.New(n, dests)
	if err != nil {
		return fmt.Errorf("expected assignment: %w", err)
	}
	// The input cells of bsn.CellsForAssignment, with tag sequences built
	// only for the active inputs. CellsForAssignment also builds one for
	// every idle input: 17.5 ms per single-group plan at n = 1024 against
	// 0.05 ms here (2-vCPU x86-64 VM, Go 1.24), which would add about half
	// a minute of checking to every churn-replan run.
	cells := make([]bsn.Cell, n)
	for i, ds := range a.Dests {
		if len(ds) == 0 {
			cells[i] = bsn.Idle()
			continue
		}
		seq, err := mcast.SequenceFromDests(n, ds)
		if err != nil {
			return fmt.Errorf("input %d tag sequence: %w", i, err)
		}
		cells[i] = bsn.Cell{Tag: seq[0], Source: i, Seq: seq}
	}
	out, err := ex.Run(cols, cells)
	if err != nil {
		return fmt.Errorf("fabric.Run: %w", err)
	}
	want := a.OutputOwner()
	for p, cell := range out {
		got := -1
		if !cell.IsIdle() {
			got = cell.Source
		}
		if got != want[p] {
			return fmt.Errorf("output %d receives input %d, want %d", p, got, want[p])
		}
	}
	return nil
}
