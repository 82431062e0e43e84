//go:build !race

package fpva

// raceEnabled mirrors the race detector state, which adds allocations of
// its own and so breaks allocation counts.
const raceEnabled = false
