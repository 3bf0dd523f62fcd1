package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"incshrink"
)

// TestDropCheckpointNoResurrection pins the checkpoint/Drop interleaving:
// an upload and a checkpoint waiting for the view's mutex when Drop starts
// either run before Drop closes the view or fail with ErrClosed, and Drop's
// delete is strictly ordered after any checkpoint file written — so the
// dropped tenant's snapshot cannot reappear and a restarting registry
// restores nothing.
func TestDropCheckpointNoResurrection(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	defer reg.Close(context.Background())
	v, err := reg.Create("sales", testDef(), testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := v.Advance(ctx, []incshrink.Row{{1, 0}}, []incshrink.Row{{1, 0}}); err != nil {
		t.Fatal(err)
	}

	// Hold the view, queue an upload and a checkpoint behind it, then start
	// the Drop — the interleaving where a checkpoint could recreate the file
	// after the delete.
	v.mu.Lock()
	upDone := make(chan error, 1)
	go func() {
		_, err := v.Advance(ctx, []incshrink.Row{{2, 1}}, nil)
		upDone <- err
	}()
	cpDone := make(chan error, 1)
	go func() {
		_, _, err := v.Checkpoint(ctx)
		cpDone <- err
	}()
	waitFor(t, func() bool { return v.writers.Load() == 2 })

	dropDone := make(chan error, 1)
	go func() { dropDone <- reg.Drop("sales") }()
	// The drop is underway: the name resolves as gone but stays reserved.
	waitFor(t, func() bool {
		_, err := reg.Get("sales")
		return errors.Is(err, ErrNotFound)
	})
	if _, err := reg.Create("sales", testDef(), testOpts(1)); !errors.Is(err, ErrExists) {
		t.Fatalf("create during drop: got %v, want ErrExists (name reserved until teardown finishes)", err)
	}

	v.mu.Unlock() // release: the upload, the checkpoint and the close take the mutex in some order
	if err := <-upDone; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("waiting upload: %v, want success or ErrClosed", err)
	}
	if err := <-cpDone; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("waiting checkpoint: %v, want success or ErrClosed", err)
	}
	if err := <-dropDone; err != nil {
		t.Fatalf("drop failed: %v", err)
	}
	if _, err := v.Advance(ctx, []incshrink.Row{{3, 2}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("upload after drop: %v, want ErrClosed", err)
	}
	if _, _, err := v.Checkpoint(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after drop: %v, want ErrClosed", err)
	}

	snap := filepath.Join(dir, "sales.snap")
	if _, err := os.Stat(snap); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dropped view's checkpoint resurrected at %s (stat err: %v)", snap, err)
	}
	reg2 := NewRegistry(Config{DataDir: dir})
	defer reg2.Close(context.Background())
	restored, err := reg2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restore after drop resurrected %v", restored)
	}

	// The name is free again and a fresh tenant's checkpoint sticks.
	v2, err := reg.Create("sales", testDef(), testOpts(9))
	if err != nil {
		t.Fatalf("recreate after drop: %v", err)
	}
	if st := v2.Stats(); st.Stats.Step != 0 {
		t.Fatalf("recreated view inherited state: step %d", st.Stats.Step)
	}
	if _, _, err := v2.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("fresh tenant's checkpoint missing: %v", err)
	}
}
