// Package mpc is an rngdraw fixture standing in for a snapshot-covered
// protocol package.
package mpc

import (
	"math/rand"

	"incshrink/internal/dp"
)

func sources(seed int64) {
	_ = rand.New(rand.NewSource(seed)) // want `math/rand.New in` `math/rand.NewSource in`
	_ = dp.NewStream(seed)             // the one constructor: legal
}

// A source built elsewhere is still a use of math/rand where it draws.
func draw(r *rand.Rand) uint32 {
	return r.Uint32() // want `math/rand.Uint32 in`
}
