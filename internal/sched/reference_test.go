package sched

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refValidate is the map-based request check the bitset one replaced;
// the error texts must stay the same.
func refValidate(r Request, n int) error {
	if r.Source < 0 || r.Source >= n {
		return fmt.Errorf("sched: source %d out of range [0,%d)", r.Source, n)
	}
	if len(r.Dests) == 0 {
		return fmt.Errorf("sched: request from %d has no destinations", r.Source)
	}
	seen := make(map[int]bool, len(r.Dests))
	for _, d := range r.Dests {
		if d < 0 || d >= n {
			return fmt.Errorf("sched: request from %d has destination %d out of range", r.Source, d)
		}
		if seen[d] {
			return fmt.Errorf("sched: request from %d lists destination %d twice", r.Source, d)
		}
		seen[d] = true
	}
	return nil
}

// refScheduleIdx is the []bool greedy first-fit the bitset scheduler
// replaced: requests in decreasing fanout, stable among equals, each
// placed in the first round where its source and outputs are free.
func refScheduleIdx(n int, reqs []Request) ([][]int, error) {
	for _, r := range reqs {
		if err := refValidate(r, n); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(reqs[order[a]].Dests) > len(reqs[order[b]].Dests)
	})
	type roundState struct {
		members []int
		outUsed []bool
		srcUsed []bool
	}
	var rounds []*roundState
place:
	for _, idx := range order {
		r := reqs[idx]
		for _, rd := range rounds {
			if rd.srcUsed[r.Source] {
				continue
			}
			ok := true
			for _, d := range r.Dests {
				if rd.outUsed[d] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rd.srcUsed[r.Source] = true
			for _, d := range r.Dests {
				rd.outUsed[d] = true
			}
			rd.members = append(rd.members, idx)
			continue place
		}
		rd := &roundState{outUsed: make([]bool, n), srcUsed: make([]bool, n)}
		rd.srcUsed[r.Source] = true
		for _, d := range r.Dests {
			rd.outUsed[d] = true
		}
		rd.members = append(rd.members, idx)
		rounds = append(rounds, rd)
	}
	out := make([][]int, len(rounds))
	for i, rd := range rounds {
		out[i] = rd.members
	}
	return out, nil
}

// errText is an error's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstReference demands ScheduleIndices and Validate agree with
// the reference: equal round indices and equal error texts.
func checkAgainstReference(t *testing.T, n int, reqs []Request) {
	t.Helper()
	for i, r := range reqs {
		if got, want := errText(r.Validate(n)), errText(refValidate(r, n)); got != want {
			t.Fatalf("n=%d request %d %+v: Validate %q, reference %q", n, i, r, got, want)
		}
	}
	got, err := ScheduleIndices(n, reqs)
	want, werr := refScheduleIdx(n, reqs)
	if errText(err) != errText(werr) {
		t.Fatalf("n=%d: error %q, reference %q", n, errText(err), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d: rounds %v\nreference %v", n, got, want)
	}
}

// TestScheduleMatchesReference runs seeded batches at sizes that leave
// the last bitset word partial (n < 64 and n not a multiple of 64) or
// fill it, with narrow and wide requests, shared sources and one hot
// output.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 3, 7, 8, 63, 64, 65, 100, 128, 257, 1024} {
		for trial := 0; trial < 20; trial++ {
			count := 1 + rng.Intn(2*n)
			reqs := make([]Request, count)
			for i := range reqs {
				k := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					k = 1 + rng.Intn(min(n, 4))
				}
				src := rng.Intn(n)
				if trial%3 == 0 {
					src = rng.Intn(min(n, 3))
				}
				dests := rng.Perm(n)[:k]
				if trial%4 == 0 && k < n {
					dests[0] = n - 1 // a hot output
				}
				reqs[i] = Request{Source: src, Dests: dests}
			}
			checkAgainstReference(t, n, reqs)
		}
	}
	checkAgainstReference(t, 8, nil)
	checkAgainstReference(t, 0, []Request{{Source: 0, Dests: []int{0}}})
	checkAgainstReference(t, -4, []Request{{Source: -1, Dests: []int{0}}})
}

// decodeBatch turns fuzz bytes into a network size in [2, 1024] and a
// batch of up to 64 requests. Each request is a header byte (low five
// bits: destination count, zero allowed; bit 6: take the destinations
// as a strided run four times as long) and little-endian 16-bit values
// mapped onto [-1, n], so sources collide and destinations repeat or
// fall out of range.
func decodeBatch(data []byte) (int, []Request) {
	if len(data) < 2 {
		return 2, nil
	}
	n := 2 + int(binary.LittleEndian.Uint16(data))%1023
	data = data[2:]
	val := func() int {
		if len(data) < 2 {
			data = nil
			return 0
		}
		v := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		return v%(n+2) - 1
	}
	var reqs []Request
	for len(data) > 0 && len(reqs) < 64 {
		h := data[0]
		data = data[1:]
		r := Request{Source: val(), Dests: []int{}}
		k := int(h & 31)
		if h&64 != 0 {
			start, stride := val(), 1+int(h>>7)
			for j := 0; j < 4*k; j++ {
				r.Dests = append(r.Dests, start+j*stride)
			}
		} else {
			for j := 0; j < k; j++ {
				r.Dests = append(r.Dests, val())
			}
		}
		reqs = append(reqs, r)
	}
	return n, reqs
}

// FuzzSchedule checks the bitset first-fit and the bitset validation
// against the []bool reference: equal round indices, equal error texts.
func FuzzSchedule(f *testing.F) {
	le := func(vs ...int) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint16(b, uint16(v))
		}
		return b
	}
	f.Add(le(6)) // n = 8, empty batch
	f.Add(append(le(6), append([]byte{3}, le(2, 3, 4, 5)...)...))
	f.Add(append(le(30), append([]byte{2}, le(1, 2, 2)...)...))                                                  // duplicate destination
	f.Add(append(le(30), append([]byte{0}, le(1)...)...))                                                        // empty destinations
	f.Add(append(le(100), append([]byte{1}, le(0, 104)...)...))                                                  // destination out of range
	f.Add(append(le(1022), append([]byte{64 | 20}, le(5, 7)...)...))                                             // n = 1024, wide run
	f.Add(append(le(61), append(append([]byte{64 | 31}, le(3, 0)...), append([]byte{2}, le(3, 1, 2)...)...)...)) // shared source
	f.Fuzz(func(t *testing.T, data []byte) {
		n, reqs := decodeBatch(data)
		checkAgainstReference(t, n, reqs)
	})
}
