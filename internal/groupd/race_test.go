//go:build race

package groupd

// raceEnabled reports a -race build, where allocation counts are not
// the program's own.
const raceEnabled = true
