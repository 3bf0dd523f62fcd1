// Package goleak is the goleak fixture: a library package, where every go
// statement is a finding unless an allow states its join.
package goleak

func work() {}

func spawn() {
	go work() // want `go statement in a library package`
}

func spawnJoined(done chan struct{}) {
	//lint:allow goleak fixture: the caller receives done before returning
	go func() {
		work()
		close(done)
	}()
}
