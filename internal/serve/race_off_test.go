//go:build !race

package serve

// raceEnabled gates allocation-budget assertions off under the race
// detector; see race_on_test.go.
const raceEnabled = false
