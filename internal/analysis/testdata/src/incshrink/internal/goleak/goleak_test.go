package goleak

// Test goroutines die with the test binary: no finding, no allow needed.
func spawnInTest() {
	go work()
}
