package rbn

// Engine is an empty compatibility type. Every sweep in this package is
// a plain function that runs the paper's forward/backward tree walk
// (Tables 3–6) on the caller's goroutine, and core routes the
// sub-BRSMNs of a level one after the other, so there is nothing left
// to configure.
//
// Its one caller is the benchmark replay (brsmnperf/replay.go), which
// still passes rbn.Engine{} to core.New and core.NewPlanner; both take
// it as an ignored trailing variadic. The next change to the benchmark
// drops that argument, and this type and the two variadics go with it.
type Engine struct{}
