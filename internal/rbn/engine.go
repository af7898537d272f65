package rbn

// Engine selects how the distributed setting algorithms are executed.
// Every sweep is the paper's forward/backward tree walk (Tables 3–6) and
// runs on the caller's goroutine; the per-level node parallelism of the
// hardware is not simulated with goroutines.
//
// Workers is not read by this package: it is the fork width of the
// sub-BRSMN recursion in core's planner, which routes the two
// independent half-size networks of a level concurrently. Workers <= 1
// routes sequentially. Every setting produces bit-identical plans.
type Engine struct {
	Workers int
}

// Sequential is the default engine.
var Sequential = Engine{Workers: 1}
