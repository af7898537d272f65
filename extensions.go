package brsmn

import (
	"context"

	"brsmn/internal/controller"
	"brsmn/internal/netsim"
	"brsmn/internal/sched"
)

// Request is one multicast demand for the batch scheduler: a source
// input and a destination set. Unlike assignments, requests in a batch
// may overlap — the scheduler serializes conflicting requests into
// successive rounds.
type Request = sched.Request

// BatchResult is a scheduled and routed request batch: the conflict-free
// rounds (each a valid assignment routed in one network pass) and the
// round each original request was placed in.
type BatchResult = sched.Result

// ScheduleRequests partitions overlapping requests into conflict-free
// rounds (greedy first-fit, largest fanout first). Each round is a valid
// multicast assignment for one network pass; the number of rounds is at
// least the batch's conflict degree (see ConflictDegree).
func ScheduleRequests(n int, reqs []Request) ([][]Request, error) {
	return sched.Schedule(n, reqs)
}

// ConflictDegree returns the largest number of requests in the batch
// sharing one output or one source — the lower bound on rounds any
// schedule needs.
func ConflictDegree(n int, reqs []Request) int {
	return sched.ConflictDegree(n, reqs)
}

// ScheduleAndRoute schedules a request batch and routes every round
// through an n x n BRSMN, verifying each round's deliveries.
func ScheduleAndRoute(n int, reqs []Request) (*BatchResult, error) {
	return sched.RouteAll(n, reqs)
}

// PipelineReport describes a pipelined run: per-wave deliveries, the
// makespan in switch-column cycles, and the speedup over running each
// assignment through the fabric alone.
type PipelineReport = netsim.Report

// RoutePipelined streams a batch of same-size assignments through one
// BRSMN fabric with a new wave injected every `gap` cycles (gap >= 1) —
// the pipelined operation of the paper's Section 7. After the pipeline
// fills, one complete multicast assignment is delivered every gap
// cycles; the report records the achieved makespan and column
// parallelism, and every wave's deliveries are verified.
func RoutePipelined(assignments []Assignment, gap int) (*PipelineReport, error) {
	return netsim.Pipeline(assignments, gap)
}

// StreamResult is one routed assignment from a concurrent stream, tagged
// with its submission index; exactly one of Res/Err is set.
type StreamResult = controller.StreamResult

// RouteStream routes a stream of same-size assignments concurrently: a
// pool of `workers` goroutines overlaps plan computation and fabric
// simulation across assignments, and results are delivered on the
// returned channel in submission order. The stream ends when `in` closes
// or ctx is cancelled; per-assignment failures arrive as in-band errors
// without stopping the stream.
func RouteStream(ctx context.Context, n int, in <-chan Assignment, workers int) (<-chan StreamResult, error) {
	return controller.RouteStream(ctx, n, in, workers)
}

// RouteBatch routes a slice of assignments with the given concurrency
// and returns the ordered results.
func RouteBatch(n int, assignments []Assignment, workers int) ([]StreamResult, error) {
	return controller.RouteAll(n, assignments, workers)
}
