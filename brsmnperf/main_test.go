package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestTraceRepeats: one seed gives the same op trace, another seed a
// different one.
func TestTraceRepeats(t *testing.T) {
	for _, w := range workloads {
		a, b := w.build(7, 1200), w.build(7, 1200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different traces", w.name)
		}
		if c := w.build(8, 1200); reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 gave the same timed ops", w.name)
		}
	}
}

// TestTraceMembership replays every trace against an independent model
// of group membership: joins add non-members, leaves remove members, no
// group is emptied, generations and sizes match, and each checked plan
// expects exactly the membership at its generation.
func TestTraceMembership(t *testing.T) {
	for _, w := range workloads {
		tr := w.build(3, 2400)
		for c := 0; c < clients; c++ {
			members := map[int32]map[int32]bool{}
			gens := map[int32]int32{}
			for _, ops := range [][]op{tr.setup[c], tr.timed[c]} {
				for i, o := range ops {
					switch o.kind {
					case opCreate:
						set := map[int32]bool{}
						for _, d := range tr.groups[o.group].members {
							set[int32(d)] = true
						}
						members[o.group], gens[o.group] = set, 1
					case opJoin, opLeave:
						set := members[o.group]
						if set[o.dest] == (o.kind == opJoin) {
							t.Fatalf("%s client %d op %d: %v of %d, member=%v", w.name, c, i, o.kind, o.dest, set[o.dest])
						}
						if o.kind == opJoin {
							set[o.dest] = true
						} else {
							delete(set, o.dest)
						}
						gens[o.group]++
						if len(set) == 0 || int32(len(set)) != o.size || gens[o.group] != o.gen {
							t.Fatalf("%s client %d op %d: size %d gen %d, op says size %d gen %d",
								w.name, c, i, len(set), gens[o.group], o.size, o.gen)
						}
					case opPlan:
						if o.gen != gens[o.group] {
							t.Fatalf("%s client %d op %d: fetch at gen %d, group is at %d", w.name, c, i, o.gen, gens[o.group])
						}
						if o.expect < 0 {
							continue
						}
						var want []int
						for d := range members[o.group] {
							want = append(want, int(d))
						}
						sort.Ints(want)
						if !reflect.DeepEqual(want, tr.expect[o.expect]) {
							t.Fatalf("%s client %d op %d: expected membership differs from the model", w.name, c, i)
						}
					}
				}
			}
		}
	}
}

// TestCountersRepeat runs read-hot and churn-replan twice on one seed
// against a freshly built brsmnd: the daemon's plan-cache hits, misses
// and replans over the timed phase must be identical across the runs,
// and hits and misses must equal the trace's predictions.
func TestCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs brsmnd")
	}
	bin := filepath.Join(t.TempDir(), "brsmnd")
	build := exec.Command("go", "build", "-o", bin, "brsmn/cmd/brsmnd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build brsmnd: %v", err)
	}
	for _, name := range []string{"read-hot", "churn-replan"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var got [2][3]float64
		var predHits, predMisses float64
		for i := range got {
			r, err := execute(runConfig{wl: wl, seed: 5, ops: 1200, traced: true, bin: bin, setups: 1, deadline: time.Minute})
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s run %d: %d failed: %v", name, i, r.failed, r.failures)
			}
			d := r.metrics
			got[i] = [3]float64{
				d.sum("brsmn_plan_cache_ops_total", `op="hit"`),
				d.sum("brsmn_plan_cache_ops_total", `op="miss"`),
				d.sum("brsmn_replans_total"),
			}
			predHits, predMisses = 0, 0
			for c := 0; c < clients; c++ {
				for _, o := range r.t.timed[c] {
					if o.kind != opPlan {
						continue
					}
					if o.miss {
						predMisses++
					} else {
						predHits++
					}
				}
			}
		}
		t.Logf("%s: hits, misses, replans = %v", name, got[0])
		if got[0] != got[1] {
			t.Errorf("%s: hits, misses, replans %v then %v", name, got[0], got[1])
		}
		if got[0][0] != predHits || got[0][1] != predMisses {
			t.Errorf("%s: hits %v misses %v, trace predicts %v and %v", name, got[0][0], got[0][1], predHits, predMisses)
		}
	}
}
