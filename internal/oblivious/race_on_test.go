//go:build race

package oblivious

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so pooled paths allocate now and then.
const raceEnabled = true
