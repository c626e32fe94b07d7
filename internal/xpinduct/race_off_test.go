//go:build !race

package xpinduct

// raceEnabled gates allocation-budget assertions off under the race
// detector, which instruments allocations — the budgets only describe
// production builds.
const raceEnabled = false
