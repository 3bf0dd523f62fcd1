// Package unusedallow exercises unused-allow reporting: an escape hatch
// that suppresses nothing is itself reported.
package unusedallow

func f() int {
	//lint:allow detclock stale annotation, nothing on the next line reads the clock // want `suppresses nothing`
	return 1
}
