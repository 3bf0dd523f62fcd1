// Package atomic is a hermetic analysistest stub: one package-level
// function the atomicmix fixture calls and one typed atomic it uses.
package atomic

func AddInt64(addr *int64, delta int64) int64 { return 0 }

type Int64 struct{ v int64 }

func (x *Int64) Add(delta int64) int64 { return 0 }
