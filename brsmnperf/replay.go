package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"brsmn/internal/controller"
	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
	"brsmn/internal/rbn"
	"brsmn/internal/sched"
)

// replayCap bounds how many misses or stateless requests the traced run
// replays, taken in trace order, so its cost stays within a run.
const replayCap = 300

// replayResult holds the mean time of each public entry point the
// daemon calls on the paths the run exercised, measured in this process
// on the run's own inputs. Zero means the workload never reached it.
type replayResult struct {
	mcastNewUs   float64 // mcast.New
	routeUs      float64 // Planner.Route of a group assignment (full replan)
	patchUs      float64 // Planner.RoutePatch of one join/leave
	flattenUs    float64 // fabric.Flatten
	encodeUs     float64 // plancodec.Encode
	blobKB       float64 // encoded plan size
	coreNewUs    float64 // core.New (stateless: a cold network per request)
	routeDenseUs float64 // Network.Route of a dense stateless assignment
	decodeUs     float64 // JSON decode of a stateless request body
	scheduleMs   float64 // sched.ScheduleIndices over every group
	routeAllMs   float64 // controller.RouteAllOn over the epoch's rounds
	missWorkUs   float64 // mean replayed work of one full-replan miss
	patchWorkUs  float64 // mean replayed work of one patched miss
	statelessUs  float64 // mean replayed work of one stateless request
}

// mean accumulates durations.
type mean struct {
	sum time.Duration
	n   int
}

func (m *mean) add(d time.Duration) { m.sum += d; m.n++ }

func (m *mean) us() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.sum.Nanoseconds()) / float64(m.n) / 1e3
}

func timed[T any](m *mean, f func() (T, error)) (T, error) {
	s := time.Now()
	v, err := f()
	m.add(time.Since(s))
	return v, err
}

// replay times the layer entry points on the run's inputs. Group
// workloads replay their misses in trace order: a miss that follows a
// change of the group the client last planned replays as RoutePatch on
// the retained route, as the daemon's patch path does; any other miss
// as a full Route. Stateless workloads replay their pool requests cold,
// as the handler does. With epoch set it also replays one epoch over
// the final membership of every group. Any error is a failed check: the
// run's own inputs must route.
func replay(t *trace, epoch bool) (*replayResult, error) {
	rp := &replayer{t: t}
	out := &replayResult{}
	var err error
	if t.pool != nil {
		err = rp.stateless(out)
	} else {
		err = rp.misses(out)
	}
	if err != nil {
		return out, err
	}
	if epoch {
		if out.scheduleMs, out.routeAllMs, err = replayEpoch(t); err != nil {
			return out, err
		}
	}
	out.mcastNewUs, out.routeUs, out.patchUs = rp.mNew.us(), rp.mRoute.us(), rp.mPatch.us()
	out.flattenUs, out.encodeUs = rp.mFlat.us(), rp.mEnc.us()
	out.coreNewUs, out.routeDenseUs, out.decodeUs = rp.mCoreNew.us(), rp.mDense.us(), rp.mDec.us()
	if rp.blobs > 0 {
		out.blobKB = float64(rp.blobBytes) / float64(rp.blobs) / 1024
	}
	return out, nil
}

// replayer accumulates the per-entry-point timings of one replay.
type replayer struct {
	t                                                         *trace
	mNew, mRoute, mPatch, mFlat, mEnc, mCoreNew, mDense, mDec mean
	blobBytes, blobs                                          int
}

func (rp *replayer) flattenEncode(res *core.Result) error {
	cols, err := timed(&rp.mFlat, func() ([]fabric.Column, error) { return fabric.Flatten(res) })
	if err != nil {
		return err
	}
	blob, err := timed(&rp.mEnc, func() ([]byte, error) { return plancodec.Encode(rp.t.n, cols) })
	if err != nil {
		return err
	}
	rp.blobBytes += len(blob)
	rp.blobs++
	return nil
}

// stateless replays the pool requests as POST /v1/plan serves them.
func (rp *replayer) stateless(out *replayResult) error {
	t := rp.t
	var work mean
	for k := 0; k < len(t.pool) && k < replayCap; k++ {
		s := time.Now()
		var req struct {
			N     int     `json:"n"`
			Dests [][]int `json:"dests"`
		}
		if _, err := timed(&rp.mDec, func() (struct{}, error) { return struct{}{}, json.Unmarshal(t.poolBody[k], &req) }); err != nil {
			return fmt.Errorf("decode request %d: %w", k, err)
		}
		a, err := timed(&rp.mNew, func() (mcast.Assignment, error) { return mcast.New(req.N, req.Dests) })
		if err != nil {
			return err
		}
		nw, err := timed(&rp.mCoreNew, func() (*core.Network, error) { return core.New(a.N, rbn.Engine{}) })
		if err != nil {
			return err
		}
		res, err := timed(&rp.mDense, func() (*core.Result, error) { return nw.Route(a) })
		if err != nil {
			return err
		}
		if err := rp.flattenEncode(res); err != nil {
			return err
		}
		work.add(time.Since(s))
	}
	out.statelessUs = work.us()
	return nil
}

// misses replays up to replayCap group-plan misses in trace order.
func (rp *replayer) misses(out *replayResult) error {
	t := rp.t
	pl, err := core.NewPlanner(t.n, rbn.Engine{})
	if err != nil {
		return err
	}
	var missWork, patchWork mean
	done := 0
	for c := 0; c < clients && done < replayCap; c++ {
		routedGroup := int32(-1)
		var pending []op // changes since the last replayed fetch
		for _, o := range t.timed[c] {
			if done >= replayCap {
				break
			}
			if o.kind == opJoin || o.kind == opLeave {
				pending = append(pending, o)
				continue
			}
			if o.kind != opPlan || !o.miss || o.expect < 0 {
				continue
			}
			g := t.groups[o.group]
			s := time.Now()
			res, patched, err := rp.patch(pl, routedGroup, o.group, g.source, pending)
			if err != nil {
				return err
			}
			if !patched {
				dests := make([][]int, t.n)
				dests[g.source] = t.expect[o.expect]
				a, err := timed(&rp.mNew, func() (mcast.Assignment, error) { return mcast.New(t.n, dests) })
				if err != nil {
					return err
				}
				if res, err = timed(&rp.mRoute, func() (*core.Result, error) { return pl.Route(a) }); err != nil {
					return err
				}
			}
			if err := rp.flattenEncode(res); err != nil {
				return err
			}
			if patched {
				patchWork.add(time.Since(s))
			} else {
				missWork.add(time.Since(s))
			}
			routedGroup = o.group
			if o.burstEnd {
				// The other client's burst comes next in the daemon.
				routedGroup = -1
			}
			pending = pending[:0]
			done++
		}
	}
	out.missWorkUs, out.patchWorkUs = missWork.us(), patchWork.us()
	return nil
}

// patch rolls the planner's retained route of routedGroup forward by the
// pending changes when they all belong to group. It reports false when
// the miss needs a full route instead.
func (rp *replayer) patch(pl *core.Planner, routedGroup, group int32, source int, pending []op) (*core.Result, bool, error) {
	if routedGroup != group || len(pending) == 0 {
		return nil, false, nil
	}
	for _, ch := range pending {
		if ch.group != group {
			return nil, false, nil
		}
	}
	s := time.Now()
	var res *core.Result
	for _, ch := range pending {
		r, _, err := pl.RoutePatch(source, int(ch.dest), ch.kind == opJoin)
		if errors.Is(err, core.ErrPatchFallback) {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		res = r
	}
	rp.mPatch.add(time.Since(s))
	return res, true, nil
}

// replayEpoch schedules every group's final membership into
// conflict-free rounds and routes them all, as one daemon epoch does
// before its per-group plan refresh. It returns both times in ms.
func replayEpoch(t *trace) (scheduleMs, routeAllMs float64, err error) {
	reqs := make([]sched.Request, len(t.groups))
	for g, spec := range t.groups {
		reqs[g] = sched.Request{Source: spec.source, Dests: t.final[g]}
	}
	s := time.Now()
	idx, err := sched.ScheduleIndices(t.n, reqs)
	scheduleMs = float64(time.Since(s).Nanoseconds()) / 1e6
	if err != nil {
		return 0, 0, err
	}
	rounds := make([][]sched.Request, len(idx))
	for r, ks := range idx {
		for _, k := range ks {
			rounds[r] = append(rounds[r], reqs[k])
		}
	}
	as, err := sched.Assignments(t.n, rounds)
	if err != nil {
		return 0, 0, err
	}
	nw, err := core.New(t.n, rbn.Engine{})
	if err != nil {
		return 0, 0, err
	}
	s = time.Now()
	res, err := controller.RouteAllOn(nw, as, 1)
	routeAllMs = float64(time.Since(s).Nanoseconds()) / 1e6
	if err != nil {
		return 0, 0, err
	}
	for _, sr := range res {
		if sr.Err != nil {
			return 0, 0, fmt.Errorf("epoch round %d: %w", sr.Index, sr.Err)
		}
	}
	return scheduleMs, routeAllMs, nil
}
