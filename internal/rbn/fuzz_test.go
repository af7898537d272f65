package rbn

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"brsmn/internal/seq"
	"brsmn/internal/tag"
)

// FuzzSweeps drives the three setting algorithms from one fuzzed byte
// string and checks each against the paper's theorems, at sizes of one
// and two 64-link words. Lane i takes its tag from data[i] % 7 (the six
// tag values plus one invalid value) and its γ bit from bit 7 of
// data[i]; data[0] also picks the starting position s.
//
//   - Bit sort (Table 3): the γ lanes leave as C_{s,l;β,γ} (Theorem 1).
//   - Scatter (Tables 4–5): the minority of α and ε is eliminated and
//     the dominating surplus leaves as C_{s,l;χ,dom} (Theorem 3).
//   - Quasisort (Table 6): the ε-divided sort bits are 0 on exactly the
//     upper half of the outputs and 1 on the lower half (Theorem 2).
//
// Invalid lanes must fail with the leaf validation error naming the
// last offending index. Every plan, ε-divided vector, applied output and
// error text must also equal the straightforward reference forms kept in
// reference_test.go.
func FuzzSweeps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{0x35}, 130))
	// Every valid tag value, with γ set on every third lane (133 = 7·19
	// keeps the lane's tag): a seed on which every check runs.
	mixed := make([]byte, 130)
	for i := range mixed {
		mixed[i] = byte(i % 6)
		if i%3 == 0 {
			mixed[i] += 133
		}
	}
	f.Add(mixed)
	// Several invalid lanes: the errors must name the last one.
	f.Add([]byte{6, 13, 1, 0, 20, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 64
		if len(data) > 128 {
			n = 128
		}
		tags := make([]tag.Value, n)
		gamma := make([]bool, n)
		s := 0
		if len(data) > 0 {
			s = int(data[0]) % n
		}
		for i := 0; i < n; i++ {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			tags[i] = tag.Value(b % 7)
			gamma[i] = b&0x80 != 0
		}
		checkBitSort(t, n, gamma, s)
		fuzzScatter(t, tags, s)
		fuzzQuasisort(t, tags)
		fuzzQuasisort(t, quasiInput(tags))
		fuzzReference(t, tags, gamma, s)
	})
}

// fuzzReference checks the sweeps and the stage apply against the
// reference forms, with one warm Scratch shared by every sweep as the
// routing planner shares it.
func fuzzReference(t *testing.T, tags []tag.Value, gamma []bool, s int) {
	t.Helper()
	n := len(tags)
	sc := NewScratch(2 * n)

	got, want := NewPlan(n), NewPlan(n)
	if err := BitSortPlanInto(got, gamma, s, sc); err != nil {
		t.Fatal(err)
	}
	if err := refBitSort(want, gamma, s); err != nil {
		t.Fatal(err)
	}
	samePlan(t, "bit sort", got, want)
	checkApply(t, got, tags)

	got, want = NewPlan(n), NewPlan(n)
	gerr := ScatterPlanInto(got, tags, s, sc)
	if sameErr(t, "scatter", gerr, refScatter(want, tags, s)) {
		samePlan(t, "scatter", got, want)
		checkApply(t, got, tags)
	}

	for _, in := range [][]tag.Value{tags, quasiInput(tags)} {
		got, want = NewPlan(n), NewPlan(n)
		gdiv, wdiv := make([]tag.Value, n), make([]tag.Value, n)
		gerr := QuasisortPlanInto(got, gdiv, in, sc)
		if sameErr(t, "quasisort", gerr, refQuasisort(want, wdiv, in)) {
			samePlan(t, "quasisort", got, want)
			if !slices.Equal(gdiv, wdiv) {
				t.Fatalf("quasisort of %v: divided %v, reference %v", in, gdiv, wdiv)
			}
			checkApply(t, got, gdiv)
		}
		edst := make([]tag.Value, n)
		gerr = EpsDivideInto(edst, in, sc)
		if sameErr(t, "ε-divide", gerr, refEpsDivide(wdiv, in)) && !slices.Equal(edst, wdiv) {
			t.Fatalf("ε-divide of %v: %v, reference %v", in, edst, wdiv)
		}
	}
}

// sameErr fails t unless got and want are both nil or carry the same
// text; it reports whether both are nil.
func sameErr(t *testing.T, label string, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, reference %v", label, got, want)
	}
	return got == nil
}

// samePlan fails t unless got and want hold the same settings.
func samePlan(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	for j := range want.Stages {
		if !slices.Equal(got.Stages[j], want.Stages[j]) {
			t.Fatalf("%s: stage %d is %v, reference %v", label, j, got.Stages[j], want.Stages[j])
		}
	}
}

// checkApply checks that Trace, ApplyScratch and ApplyTags agree with
// the reference walk on p, with a split function and without one (a
// plan with a broadcast must then fail with the same text).
func checkApply(t *testing.T, p *Plan, tags []tag.Value) {
	t.Helper()
	ids := make([]int, p.N)
	for i := range ids {
		ids[i] = i
	}
	for _, split := range []func(int) (int, int){func(x int) (int, int) { return x, -x - 1 }, nil} {
		want, werr := refTrace(p, ids, split)
		got, gerr := Trace(p, ids, split)
		if sameErr(t, "Trace", gerr, werr) {
			for j := range want {
				if !slices.Equal(got[j], want[j]) {
					t.Fatalf("Trace row %d is %v, reference %v", j, got[j], want[j])
				}
			}
		}
		out, aerr := ApplyScratch(p, ids, make([]int, p.N), split)
		if sameErr(t, "ApplyScratch", aerr, werr) && !slices.Equal(out, want[p.M]) {
			t.Fatalf("ApplyScratch gives %v, reference %v", out, want[p.M])
		}
	}
	got, gerr := ApplyTags(p, tags)
	want, werr := refApplyTags(p, tags)
	if sameErr(t, "ApplyTags", gerr, werr) && !slices.Equal(got, want) {
		t.Fatalf("ApplyTags(%v) gives %v, reference %v", tags, got, want)
	}
}

// lastInvalid returns the last lane of tags for which bad reports true,
// and its value; -1 if there is none.
func lastInvalid(tags []tag.Value, bad func(tag.Value) bool) (int, tag.Value) {
	idx, v := -1, tag.Value(0)
	for i, x := range tags {
		if bad(x) {
			idx, v = i, x
		}
	}
	return idx, v
}

// wantErr fails t unless err carries exactly the text want.
func wantErr(t *testing.T, label string, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Fatalf("%s: error %v, want %q", label, err, want)
	}
}

// fuzzScatter checks Theorem 3 for tags routed from starting position s,
// or the invalid-tag error if some lane is not a tag value.
func fuzzScatter(t *testing.T, tags []tag.Value, s int) {
	t.Helper()
	n := len(tags)
	_, out, err := ScatterRoute(n, tags, s)
	if idx, v := lastInvalid(tags, func(x tag.Value) bool { return !x.Valid() }); idx >= 0 {
		wantErr(t, "scatter", err, fmt.Sprintf("rbn: input %d carries invalid tag %v", idx, v))
		return
	}
	if err != nil {
		t.Fatalf("ScatterRoute(%v, %d): %v", tags, s, err)
	}
	in, oc := tag.Count(tags), tag.Count(out)
	pairs := min(in.NAlpha, in.NEps)
	if oc.NAlpha != in.NAlpha-pairs || oc.NEps != in.NEps-pairs {
		t.Fatalf("scatter: minority not eliminated: in %+v out %+v", in, oc)
	}
	if oc.N0 != in.N0+pairs || oc.N1 != in.N1+pairs {
		t.Fatalf("scatter: in %+v out %+v breaks eq. 4", in, oc)
	}
	dom, l := tag.Eps, in.NEps-pairs
	if in.NAlpha > in.NEps {
		dom, l = tag.Alpha, in.NAlpha-pairs
	}
	classed := make([]tag.Value, n)
	for i, v := range out {
		switch {
		case v.IsChi():
			classed[i] = tag.V0
		case v.IsEps():
			classed[i] = tag.Eps
		default:
			classed[i] = v
		}
	}
	if !seq.IsCompact(classed, s, l, tag.V0, dom) {
		t.Fatalf("scatter: output %v not C_{%d,%d;χ,%v}", out, s, l, dom)
	}
}

// quasiInput turns tags into a valid quasisort input: every lane that is
// not 0, 1 or ε becomes ε, and ones and zeros past n/2 become ε.
func quasiInput(tags []tag.Value) []tag.Value {
	n := len(tags)
	q := make([]tag.Value, n)
	n0, n1 := 0, 0
	for i, v := range tags {
		switch {
		case v == tag.V0 && n0 < n/2:
			n0++
		case v == tag.V1 && n1 < n/2:
			n1++
		default:
			v = tag.Eps
		}
		q[i] = v
	}
	return q
}

// fuzzQuasisort checks the ε split of Table 6 and the quasisorting
// function for tags, or the error an invalid or overloaded input must
// raise.
func fuzzQuasisort(t *testing.T, tags []tag.Value) {
	t.Helper()
	n := len(tags)
	p, divided, err := QuasisortPlan(n, tags)
	c := tag.Count(tags)
	switch idx, v := lastInvalid(tags, func(x tag.Value) bool { return x != tag.V0 && x != tag.V1 && x != tag.Eps }); {
	case idx >= 0:
		wantErr(t, "quasisort", err, fmt.Sprintf("rbn: ε-divide input %d carries %v; want 0, 1 or ε", idx, v))
		return
	case c.N1 > n/2:
		wantErr(t, "quasisort", err, fmt.Sprintf("rbn: ε-divide input has %d ones, more than n/2 = %d", c.N1, n/2))
		return
	case c.N0 > n/2:
		wantErr(t, "quasisort", err, fmt.Sprintf("rbn: ε-divide input has %d zeros, more than n/2 = %d", c.N0, n/2))
		return
	}
	if err != nil {
		t.Fatalf("QuasisortPlan(%v): %v", tags, err)
	}
	for i, v := range divided {
		if tags[i] == tag.Eps && v != tag.Eps0 && v != tag.Eps1 || tags[i] != tag.Eps && v != tags[i] {
			t.Fatalf("quasisort: lane %d divided from %v to %v", i, tags[i], v)
		}
	}
	out, err := ApplyTags(p, divided)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := i * 2 / n; v.SortBit() != want {
			t.Fatalf("quasisort: output %d carries %v, want sort bit %d (divided %v)", i, v, want, divided)
		}
	}
}
