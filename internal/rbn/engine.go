package rbn

// Engine selects how the distributed setting algorithms are executed.
// Every sweep runs on the caller's goroutine; the per-level node
// parallelism of the hardware is what the packed kernels of kernels.go
// exploit, 64 links per word step.
//
// Workers is not read by this package: it is the fork width of the
// sub-BRSMN recursion in core's planner, which routes the two
// independent half-size networks of a level concurrently. Workers <= 1
// routes sequentially. Every setting produces bit-identical plans.
//
// Scalar forces the one-tag-per-iteration reference sweeps. The zero
// value (false) lets sweeps of 64 or more links run the word-parallel
// packed kernels, which produce byte-identical plans; the scalar path
// serves smaller networks and is retained as the differential oracle.
type Engine struct {
	Workers int
	Scalar  bool
}

// Sequential is the default engine.
var Sequential = Engine{Workers: 1}
