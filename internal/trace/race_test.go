//go:build race

package trace

// raceEnabled reports a -race build, under which the generator runs
// about 20 times slower.
const raceEnabled = true
