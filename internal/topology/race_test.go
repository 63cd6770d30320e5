//go:build race

package topology

// raceEnabled reports a -race build.
const raceEnabled = true
