//go:build !race

package oblivious

const raceEnabled = false
