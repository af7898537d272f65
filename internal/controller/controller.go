// Package controller runs the multicast network as a software service
// over a stream of assignments: a pool of routing workers computes
// switch plans and simulates the fabric concurrently — assignment k+1's
// plan computation overlaps assignment k's — while a reorder stage
// delivers results in submission order. This is the software analogue of
// the hardware pipelining of package netsim: there the fabric overlaps
// waves cycle by cycle; here goroutines overlap whole routings.
package controller

import (
	"context"
	"fmt"
	"sync"

	"brsmn/internal/core"
	"brsmn/internal/mcast"
)

// StreamResult is one routed assignment, tagged with its submission
// index. Exactly one of Res/Err is set.
type StreamResult struct {
	Index int
	Res   *core.Result
	Err   error
}

// RouteStream consumes assignments from in until it closes (or ctx is
// cancelled), routes them on `workers` concurrent goroutines sharing one
// n x n network, and emits results on the returned channel in submission
// order. The channel closes after the last result. A routing error is
// delivered in its slot; the stream keeps going.
func RouteStream(ctx context.Context, n int, in <-chan mcast.Assignment, workers int) (<-chan StreamResult, error) {
	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	return RouteStreamOn(ctx, nw, in, workers)
}

// RouteStreamOn is RouteStream on a caller-provided network, so a
// long-running caller reuses the network's warm planner pool across
// calls instead of rebuilding the pipeline per call.
func RouteStreamOn(ctx context.Context, nw *core.Network, in <-chan mcast.Assignment, workers int) (<-chan StreamResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("controller: %d workers out of range", workers)
	}

	type job struct {
		idx int
		a   mcast.Assignment
	}
	jobs := make(chan job)
	unordered := make(chan StreamResult)
	out := make(chan StreamResult)

	// Dispatcher: tags submissions with their index.
	go func() {
		defer close(jobs)
		idx := 0
		for {
			select {
			case <-ctx.Done():
				return
			case a, ok := <-in:
				if !ok {
					return
				}
				select {
				case jobs <- job{idx, a}:
					idx++
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Workers.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := nw.Route(j.a)
				select {
				case unordered <- StreamResult{Index: j.idx, Res: res, Err: err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(unordered)
	}()

	// Reorder stage: buffer out-of-order completions and release the
	// next expected index as soon as it lands.
	go func() {
		defer close(out)
		pending := map[int]StreamResult{}
		next := 0
		for r := range unordered {
			pending[r.Index] = r
			for {
				rr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- rr:
					next++
				case <-ctx.Done():
					return
				}
			}
		}
		// Flush any remainder (possible only if ctx cancelled mid-way).
		for {
			rr, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			select {
			case out <- rr:
				next++
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// RouteAll is the slice convenience over RouteStream: route every
// assignment with the given concurrency and return the ordered results.
func RouteAll(n int, assignments []mcast.Assignment, workers int) ([]StreamResult, error) {
	nw, err := core.New(n)
	if err != nil {
		return nil, err
	}
	return RouteAllOn(nw, assignments, workers)
}

// RouteAllOn is RouteAll on a caller-provided network (see
// RouteStreamOn).
func RouteAllOn(nw *core.Network, assignments []mcast.Assignment, workers int) ([]StreamResult, error) {
	in := make(chan mcast.Assignment)
	go func() {
		defer close(in)
		for _, a := range assignments {
			in <- a
		}
	}()
	out, err := RouteStreamOn(context.Background(), nw, in, workers)
	if err != nil {
		return nil, err
	}
	results := make([]StreamResult, 0, len(assignments))
	for r := range out {
		results = append(results, r)
	}
	return results, nil
}
