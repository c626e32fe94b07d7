//go:build race

package serve

// raceEnabled gates allocation-budget assertions off under the race
// detector, which deliberately bypasses sync.Pool caches and instruments
// allocations — the budgets only describe production builds.
const raceEnabled = true
