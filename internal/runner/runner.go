// Package runner is the concurrent sweep engine behind the paper-evaluation
// grid: it executes independent simulation cells — (dataset, engine kind,
// parameter point) tuples — across a bounded pool of workers.
//
// Determinism is the package's contract. Results are returned in cell order
// regardless of which worker finished first, and DeriveSeed gives every cell
// its own RNG seed as a pure function of the run seed and the cell key, so a
// sweep produces byte-identical tables and figures at any worker count.
package runner

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one independent unit of a sweep: a key naming the cell (used for
// error reporting and seed derivation) and the function computing it.
type Cell[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
}

// CellError ties a failed cell to its key.
type CellError struct {
	Key string
	Err error
}

// Error implements error.
func (e *CellError) Error() string { return fmt.Sprintf("cell %s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Workers resolves a worker-count request: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map executes the cells on a pool of `workers` goroutines and returns their
// results in cell order. The first failure cancels the cells that have not
// started yet; every failure that did occur is returned as a CellError
// (joined when there are several). If the parent context is cancelled and
// that skipped at least one cell, the context's error is returned; a
// cancellation that arrives after every cell already ran does not discard
// the completed sweep.
func Map[T any](ctx context.Context, cells []Cell[T], workers int) ([]T, error) {
	workers = Workers(workers)
	if workers > len(cells) {
		workers = len(cells)
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(cells))
	errs := make([]error, len(cells))
	var skipped atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow goleak wg.Wait before Map returns
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					skipped.Add(1)
					continue // drain remaining indexes after cancellation
				}
				res, err := cells[i].Run(ctx)
				if err != nil {
					errs[i] = &CellError{Key: cells[i].Key, Err: err}
					cancel()
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := parent.Err(); err != nil && skipped.Load() > 0 {
		return nil, err
	}
	return results, nil
}

// DeriveSeed derives a per-cell RNG seed from the run seed and the cell key
// (FNV-1a over both). Each cell seeds its own rand.Rand from the result, so
// no two cells share a random stream and the value depends only on (seed,
// key) — never on worker count or scheduling order. The result is never 0,
// which config plumbing treats as "unset".
func DeriveSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	io.WriteString(h, key)
	s := int64(h.Sum64())
	if s == 0 {
		s = 0x1e3779b97f4a7c15 // arbitrary odd constant
	}
	return s
}
