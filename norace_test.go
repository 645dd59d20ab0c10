//go:build !race

package hybridloop_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
