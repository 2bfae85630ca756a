//go:build race

package core

// raceEnabled reports that the test binary runs under the race detector,
// whose instrumentation distorts wall-clock ratios.
const raceEnabled = true
