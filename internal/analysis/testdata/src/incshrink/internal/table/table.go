// Package table is a hermetic analysistest stub of
// incshrink/internal/table: the columnar cell readers oblivtaint treats
// as secret sources.
package table

type Row []int64

type Flat struct{}

func (f *Flat) At(i, j int) int64 { return 0 }
func (f *Flat) Row(i int) Row     { return nil }
func (f *Flat) Data() []int64     { return nil }
