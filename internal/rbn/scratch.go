package rbn

import "brsmn/internal/shuffle"

// Scratch holds the per-sweep working state of the three setting
// algorithms — the forward/backward tree arrays of ScatterPlan,
// BitSortPlan and EpsDivide plus the sort-bit vector of QuasisortPlan —
// sized once and recycled across calls, so a steady planning loop
// performs zero per-plan allocations.
//
// A Scratch grows on demand: computing a plan for n' <= n reuses the
// prefixes of the level arrays. The zero value is ready to use (it
// allocates on first use); a Scratch is not safe for concurrent use.
type Scratch struct {
	n     int
	fwd   [][]scatterNode // scatter forward phase, levels 0..m
	ss    [][]int         // backward starting positions (scatter and bit sort)
	ls    [][]int         // bit-sort forward γ counts
	ne    [][]int         // ε-divide: per-node ε counts
	n1s   [][]int         // ε-divide: per-node real-1 counts
	ne0   [][]int         // ε-divide: dummy-0 budgets
	ne1   [][]int         // ε-divide: dummy-1 budgets
	gamma []bool          // QuasisortPlanInto's sort bits of the ε-divided vector
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
	s.fwd = make([][]scatterNode, m+1)
	s.ss = make([][]int, m+1)
	s.ls = make([][]int, m+1)
	s.ne = make([][]int, m+1)
	s.n1s = make([][]int, m+1)
	s.ne0 = make([][]int, m+1)
	s.ne1 = make([][]int, m+1)
	for j := 0; j <= m; j++ {
		s.fwd[j] = make([]scatterNode, n>>j)
		s.ss[j] = make([]int, n>>j)
		s.ls[j] = make([]int, n>>j)
		s.ne[j] = make([]int, n>>j)
		s.n1s[j] = make([]int, n>>j)
		s.ne0[j] = make([]int, n>>j)
		s.ne1[j] = make([]int, n>>j)
	}
	s.gamma = make([]bool, n)
	s.n = n
}
