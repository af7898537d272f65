package rbn

import (
	"math/rand"
	"testing"

	"brsmn/internal/tag"
)

// sweepInput returns a fixed n-input BSN entry vector with n/8 αs, n/4
// εs and 5n/16 each of 0s and 1s, shuffled: it satisfies equations
// (1)–(3), so the scatter eliminates every α.
func sweepInput(n int) []tag.Value {
	tags := make([]tag.Value, 0, n)
	for _, c := range []struct {
		v tag.Value
		k int
	}{{tag.Alpha, n / 8}, {tag.Eps, n / 4}, {tag.V0, 5 * n / 16}, {tag.V1, 5 * n / 16}} {
		for i := 0; i < c.k; i++ {
			tags = append(tags, c.v)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	return tags
}

// BenchmarkSweeps times each stage of one BSN at n = 1024 on a warm
// Scratch and preallocated plans and buffers, the way the routing
// planner runs them: the scatter and quasisort sweeps (Tables 4–6) and
// the application of each plan to a cell vector. Every sub-benchmark
// allocates nothing, so a change to the route can name the stage that
// moved.
func BenchmarkSweeps(b *testing.B) {
	const n = 1024
	tags := sweepInput(n)
	sc := NewScratch(n)
	sp, qp := NewPlan(n), NewPlan(n)
	if err := ScatterPlanInto(sp, tags, 0, sc); err != nil {
		b.Fatal(err)
	}
	mid, err := ApplyTags(sp, tags)
	if err != nil {
		b.Fatal(err)
	}
	divided := make([]tag.Value, n)
	if err := QuasisortPlanInto(qp, divided, mid, sc); err != nil {
		b.Fatal(err)
	}
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = int32(i)
	}
	buf := make([]int32, n)
	split := func(c int32) (int32, int32) { return c, c }

	b.Run("scatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ScatterPlanInto(sp, tags, 0, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("quasisort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := QuasisortPlanInto(qp, divided, mid, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply/scatter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ApplyScratch(sp, cells, buf, split); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply/quasi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ApplyScratch(qp, cells, buf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
