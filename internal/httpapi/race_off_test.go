//go:build !race

package httpapi

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under -race because its instrumentation (notably
// sync.Pool sampling) adds allocations the production build does not have.
const raceEnabled = false
