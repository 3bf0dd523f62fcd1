// Package bench is a detclock and goleak fixture under cmd/: binaries may
// time things and run goroutines as long-lived as the process, so nothing
// here is a finding.
package bench

import "time"

func Timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func Background(f func()) {
	go f()
}
