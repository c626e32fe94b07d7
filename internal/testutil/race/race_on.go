//go:build race

// Package race tells tests whether the race detector is compiled in.
package race

// Enabled gates allocation-budget assertions off under the race detector,
// which deliberately bypasses sync.Pool caches and instruments allocations
// — the budgets only describe production builds.
const Enabled = true
