// Package atomicmix is the atomicmix fixture: a package-level sync/atomic
// function is a finding, a typed atomic's method is not.
package atomicmix

import "sync/atomic"

var hits int64

func hit() {
	atomic.AddInt64(&hits, 1) // want `atomic.AddInt64 admits a plain access`
}

var typed atomic.Int64

func hitTyped() int64 {
	return typed.Add(1)
}
