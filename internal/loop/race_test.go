//go:build race

package loop

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
