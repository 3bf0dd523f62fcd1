package mpc

import "math/rand"

// A test-local stream never reaches a snapshot: no finding, no allow needed.
func testLocal(seed int64) {
	_ = rand.New(rand.NewSource(seed))
}
