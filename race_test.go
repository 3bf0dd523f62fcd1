//go:build race

package incshrink_test

// The race runtime allocates on paths a normal build does not, so exact
// allocation counts are pinned only without -race.
func init() { raceEnabled = true }
