package gates_test

import (
	"sync"
	"testing"

	"brsmn/internal/cost"
	"brsmn/internal/gates"
)

// sweepAllOnes simulates the forward sweep afresh on n all-ones leaves —
// the worst case ForwardDelay is defined by.
func sweepAllOnes(t *testing.T, n int) int {
	t.Helper()
	leaves := make([]int, n)
	for i := range leaves {
		leaves[i] = 1
	}
	_, cycles, err := gates.ForwardSweep(leaves)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

// TestForwardDelayMemoMatchesSweep checks the memoized ForwardDelay
// against a fresh simulation on the first call and on the memo read, from
// concurrent callers, and that a warm cost row does no per-call work
// beyond integer arithmetic.
func TestForwardDelayMemoMatchesSweep(t *testing.T) {
	want := map[int]int{}
	for n := 1; n <= 1<<14; n *= 2 {
		want[n] = sweepAllOnes(t, n)
	}

	gates.ResetForwardDelays()
	for n := 1; n <= 1<<14; n *= 2 {
		if first, second := gates.ForwardDelay(n), gates.ForwardDelay(n); first != want[n] || second != want[n] {
			t.Errorf("n=%d: ForwardDelay = %d then %d, want %d", n, first, second, want[n])
		}
	}

	// Concurrent first calls race to fill the same slots; every caller
	// must still see the simulated value.
	gates.ResetForwardDelays()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for n := 1; n <= 1<<14; n *= 2 {
					if d := gates.ForwardDelay(n); d != want[n] {
						errs <- "concurrent ForwardDelay diverged from the sweep"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	for _, n := range []int{0, 3, 12, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ForwardDelay(%d) did not panic", n)
				}
			}()
			gates.ForwardDelay(n)
		}()
	}

	cost.BRSMN(1024)
	if a := testing.AllocsPerRun(100, func() { cost.BRSMN(1024) }); a != 0 {
		t.Errorf("warm cost.BRSMN(1024) allocates %.0f times per call, want 0", a)
	}
}
