package sched

import (
	"math/rand"
	"testing"
)

// zipfRequests is brsmnload's default group model at n ports: sizes
// 1 + Zipf(s = 1.3, v = 2) capped at n/2, random sources, members a
// random n-permutation prefix.
func zipfRequests(rng *rand.Rand, n, count int) []Request {
	z := rand.NewZipf(rng, 1.3, 2, uint64(n/2-1))
	reqs := make([]Request, count)
	for i := range reqs {
		k := 1 + int(z.Uint64())
		reqs[i] = Request{Source: rng.Intn(n), Dests: rng.Perm(n)[:k]}
	}
	return reqs
}

// BenchmarkScheduleIndices schedules the epoch benchmark's population:
// 2,000 groups of the load model's sizes at n = 1024.
func BenchmarkScheduleIndices(b *testing.B) {
	const n = 1024
	reqs := zipfRequests(rand.New(rand.NewSource(1)), n, 2000)
	rounds, err := ScheduleIndices(n, reqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleIndices(n, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rounds)), "rounds")
}
