//go:build !race

package core

// raceEnabled mirrors the race detector state: sync.Pool drops items under
// -race, which breaks allocation counts, and solver-heavy tests run about
// 20x slower.
const raceEnabled = false
