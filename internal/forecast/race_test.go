//go:build race

package forecast

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Put items by design.
const raceEnabled = true
