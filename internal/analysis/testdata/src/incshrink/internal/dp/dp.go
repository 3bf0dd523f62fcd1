// Package dp is a hermetic analysistest stub of incshrink/internal/dp, the
// one snapshot-covered package rngdraw lets build a math/rand source.
package dp

import "math/rand"

type Stream struct {
	src *rand.Rand
}

func NewStream(seed int64) *Stream { return &Stream{src: rand.New(rand.NewSource(seed))} }

func (s *Stream) Uint32() uint32 { return s.src.Uint32() }
