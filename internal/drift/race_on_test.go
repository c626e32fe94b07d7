//go:build race

package drift_test

// raceEnabled gates allocation-budget assertions off under the race
// detector, which bypasses sync.Pool and instruments allocations — the
// budgets only describe production builds.
const raceEnabled = true
