//go:build !race

package race

// Enabled gates allocation-budget assertions off under the race detector;
// see race_on.go.
const Enabled = false
