//go:build race

package diagnose

// raceEnabled leaves the 20x20 and 30x30 oracle comparisons out under the
// race detector: the planners run on one goroutine, so the detector has
// nothing to check there, and it slows the oracle about tenfold.
const raceEnabled = true
