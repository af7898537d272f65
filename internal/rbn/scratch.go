package rbn

import "brsmn/internal/shuffle"

// Scratch holds the per-sweep tree arrays of the three setting
// algorithms, sized once and recycled across calls, so a steady planning
// loop performs zero per-plan allocations. Row j of each array holds one
// entry per level-j node of the tree embedded in the RBN (n>>j nodes):
//
//   - sur: ScatterPlan's forward sweep, each node's signed surplus
//     nα − nε (Table 4's l and type in one number);
//   - cnt: BitSortPlan's forward γ counts, or for EpsDivide and
//     QuasisortPlan each node's ε count (low 32 bits) and real-1 count
//     (high 32 bits), so one sum serves both reductions;
//   - ne0: the dummy-0 budget each node receives in Table 6's backward
//     sweep (its dummy-1 budget is its ε count minus that);
//   - ss: the starting position each node receives in the backward
//     sweeps of Tables 3, 4 and the quasisort.
//
// A Scratch grows on demand: computing a plan for n' <= n reuses the
// prefixes of the level arrays. The zero value is ready to use (it
// allocates on first use); a Scratch is not safe for concurrent use.
type Scratch struct {
	n   int
	sur [][]int
	cnt [][]uint64
	ne0 [][]int
	ss  [][]int
}

// NewScratch returns a scratch pre-sized for n x n sweeps.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.ensure(n)
	return s
}

// ensure grows every array to cover size-n sweeps.
func (s *Scratch) ensure(n int) {
	if n <= s.n {
		return
	}
	m := shuffle.Log2(n)
	s.sur = make([][]int, m+1)
	s.cnt = make([][]uint64, m+1)
	s.ne0 = make([][]int, m+1)
	s.ss = make([][]int, m+1)
	for j := 0; j <= m; j++ {
		s.sur[j] = make([]int, n>>j)
		s.cnt[j] = make([]uint64, n>>j)
		s.ne0[j] = make([]int, n>>j)
		s.ss[j] = make([]int, n>>j)
	}
	s.n = n
}
