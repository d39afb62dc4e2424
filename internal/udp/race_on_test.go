//go:build race

package udp

// raceEnabled reports that this binary carries race-detector
// instrumentation, which allocates on paths that are otherwise
// allocation-free; alloc-budget assertions skip under it.
const raceEnabled = true
