//go:build race

package fpva

const raceEnabled = true
