// Package sync is a hermetic analysistest stub: enough surface for the
// goleak fixtures.
package sync

type WaitGroup struct{}

func (wg *WaitGroup) Add(delta int) {}
func (wg *WaitGroup) Done()         {}
func (wg *WaitGroup) Wait()         {}
