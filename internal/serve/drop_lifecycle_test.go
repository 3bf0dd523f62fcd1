package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"incshrink"
)

// TestDropCheckpointNoResurrection pins the checkpoint/Drop interleaving
// fix: a checkpoint already riding the mailbox when Drop starts writes its
// file first (it was admitted first), and Drop's delete is strictly ordered
// after the drain — so the dropped tenant's snapshot cannot reappear and a
// restarting registry restores nothing.
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

	// Stall the ingest loop, then queue a checkpoint behind a pending
	// upload, then start the Drop — the exact interleaving where the old
	// layer could delete the file and have the queued checkpoint recreate
	// it afterwards.
	up := stallIngest(t, v, incshrink.StepRows{Left: []incshrink.Row{{2, 1}}})
	cpDone := make(chan error, 1)
	go func() {
		_, _, err := v.Checkpoint(ctx)
		cpDone <- err
	}()
	waitFor(t, func() bool { return len(v.mailbox) == 1 })

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

	v.mu.Unlock() // release: upload applies, checkpoint writes, loop exits, Drop deletes
	if res := <-up; res.err != nil {
		t.Fatalf("admitted upload failed: %v", res.err)
	}
	if err := <-cpDone; err != nil {
		t.Fatalf("queued checkpoint failed: %v", err)
	}
	if err := <-dropDone; err != nil {
		t.Fatalf("drop failed: %v", err)
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
