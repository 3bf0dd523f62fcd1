package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"incshrink"
	"incshrink/internal/snapshot"
)

func durDef() incshrink.ViewDef { return incshrink.ViewDef{Within: 5} }
func durOpts() incshrink.Options {
	return incshrink.Options{T: 4, Seed: 21, MaxLeft: 8, MaxRight: 8}
}

// rowsFor synthesizes the deterministic step payload used across the
// durability tests.
func rowsFor(t int) (left, right []incshrink.Row) {
	k := int64(t)
	return []incshrink.Row{{k, k}, {k + 500, k}}, []incshrink.Row{{k, k + 1}}
}

func advanceN(t *testing.T, v *View, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		l, r := rowsFor(i)
		if _, err := v.Advance(context.Background(), l, r); err != nil {
			t.Fatalf("advance %d: %v", i, err)
		}
	}
}

// TestRegistryCheckpointRestore is the serving-layer recovery path: create
// views (one per protocol, including a name that needs filename escaping),
// ingest, checkpoint, close the registry — then boot a fresh registry over
// the same data directory and verify the restored views serve the same
// counts and continue identically to an uninterrupted reference.
func TestRegistryCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	names := []string{"sales", "weird/name with spaces"}

	ref := map[string]*incshrink.DB{}
	for _, name := range names {
		db, err := incshrink.Open(durDef(), durOpts())
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = db
	}

	reg := NewRegistry(Config{DataDir: dir})
	for _, name := range names {
		v, err := reg.Create(name, durDef(), durOpts())
		if err != nil {
			t.Fatal(err)
		}
		advanceN(t, v, 0, 30)
		for i := 0; i < 30; i++ {
			l, r := rowsFor(i)
			if err := ref[name].Advance(l, r); err != nil {
				t.Fatal(err)
			}
		}
		path, step, err := v.Checkpoint(context.Background())
		if err != nil {
			t.Fatalf("checkpoint %q: %v", name, err)
		}
		if step != 30 {
			t.Fatalf("checkpoint at step %d, want 30", step)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("checkpoint file: %v", err)
		}
	}
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Boot: a fresh registry over the same directory restores every view.
	boot := NewRegistry(Config{DataDir: dir})
	defer boot.Close(context.Background())
	restored, err := boot.RestoreAll()
	if err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	if len(restored) != len(names) {
		t.Fatalf("restored %v, want %d views", restored, len(names))
	}
	for _, name := range names {
		v, err := boot.Get(name)
		if err != nil {
			t.Fatalf("restored view %q: %v", name, err)
		}
		// Continue both the restored view and the uninterrupted reference
		// and verify they stay in lockstep.
		advanceN(t, v, 30, 60)
		for i := 30; i < 60; i++ {
			l, r := rowsFor(i)
			if err := ref[name].Advance(l, r); err != nil {
				t.Fatal(err)
			}
		}
		nGot, qetGot, _ := v.CountWhere()
		nWant, qetWant := ref[name].Count()
		if nGot != nWant || qetGot != qetWant {
			t.Fatalf("%q diverged after restore: (%d, %v), uninterrupted (%d, %v)", name, nGot, qetGot, nWant, qetWant)
		}
		if got, want := v.Stats().Stats, ref[name].Stats(); got != want {
			t.Fatalf("%q stats diverged:\nrestored: %+v\nuninterrupted: %+v", name, got, want)
		}
	}
}

// TestPeriodicCheckpointing pins that CheckpointEvery writes from the
// upload that crosses the boundary without any explicit call, and that the
// snapshot lands at a step boundary.
func TestPeriodicCheckpointing(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir, CheckpointEvery: 10})
	defer reg.Close(context.Background())
	v, err := reg.Create("auto", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 25)

	st := v.Stats().Serve
	if st.Checkpoints != 2 {
		t.Fatalf("after 25 uploads with CheckpointEvery=10: %d checkpoints, want 2", st.Checkpoints)
	}
	data, err := os.ReadFile(filepath.Join(dir, "auto.snap"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := incshrink.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("periodic checkpoint does not restore: %v", err)
	}
	if db.Now() != 20 {
		t.Fatalf("periodic checkpoint at step %d, want 20 (a step boundary)", db.Now())
	}
}

// TestCheckpointAllAfterClose covers the SIGTERM path: Close closes every
// view, then CheckpointAll persists the final state.
func TestCheckpointAllAfterClose(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	v, err := reg.Create("final", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 12)
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "final.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := incshrink.Restore(f)
	if err != nil {
		t.Fatal(err)
	}
	if db.Now() != 12 {
		t.Fatalf("final checkpoint at step %d, want 12", db.Now())
	}
}

// TestDropRemovesCheckpoint pins that DELETE removes durability state too.
func TestDropRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	defer reg.Close(context.Background())
	v, err := reg.Create("gone", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 3)
	if _, _, err := v.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived Drop: %v", err)
	}
}

// TestSnapNameRoundTrip pins that every legal view name survives the
// file-name round trip — including the degenerate "." and ".." that
// url.PathEscape passes through and a filesystem would misread.
func TestSnapNameRoundTrip(t *testing.T) {
	for _, name := range []string{"sales", "a/b", "sp ace", ".", "..", ".hidden", "%2F", "ünïcode"} {
		file := escapeName(name) + snapSuffix
		if file == snapSuffix || file == "."+snapSuffix || file == ".."+snapSuffix {
			t.Fatalf("name %q escapes to degenerate file %q", name, file)
		}
		got, ok := snapName(file)
		if !ok || got != name {
			t.Fatalf("round trip of %q: got (%q, %t)", name, got, ok)
		}
	}
}

// TestDropWinsOverCheckpointAll pins that a drop is terminal even against
// the checkpoint path that skips the closed check: CheckpointAll on a
// just-dropped view must not recreate its file.
func TestDropWinsOverCheckpointAll(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	defer reg.Close(context.Background())
	v, err := reg.Create("t", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 2)
	if _, _, err := v.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("t"); err != nil {
		t.Fatal(err)
	}
	// The view object is still referenced; a stale checkpointer that skips
	// the closed check, as CheckpointAll does, must still fail.
	v.mu.Lock()
	if _, _, err := v.checkpointAndUnlock(); err == nil {
		t.Fatal("checkpoint of a dropped view succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "t.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dropped view's checkpoint reappeared: %v", err)
	}
}

// TestCheckpointWithoutDataDir pins the unconfigured-durability errors.
func TestCheckpointWithoutDataDir(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close(context.Background())
	v, err := reg.Create("ephemeral", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Checkpoint(context.Background()); !errors.Is(err, ErrNoDataDir) {
		t.Fatalf("want ErrNoDataDir, got %v", err)
	}
	if err := reg.CheckpointAll(); !errors.Is(err, ErrNoDataDir) {
		t.Fatalf("want ErrNoDataDir, got %v", err)
	}
	if _, err := reg.RestoreAll(); !errors.Is(err, ErrNoDataDir) {
		t.Fatalf("want ErrNoDataDir, got %v", err)
	}
}

// TestRestoreAllSkipsDamage pins partial-failure boot: a corrupt snapshot
// is reported but does not take down the healthy views.
func TestRestoreAllSkipsDamage(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	v, err := reg.Create("ok", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 5)
	if _, _, err := v.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := NewRegistry(Config{DataDir: dir})
	defer boot.Close(context.Background())
	restored, err := boot.RestoreAll()
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("want an error naming the broken snapshot, got %v", err)
	}
	if len(restored) != 1 || restored[0] != "ok" {
		t.Fatalf("restored %v, want [ok]", restored)
	}
}

// TestHTTPSnapshotEndpoint drives POST /v1/views/{name}/snapshot: 200 with
// the path and step on a durable registry, 409 on one without a data dir.
func TestHTTPSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	defer reg.Close(context.Background())
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	c := srv.Client()

	if code := doJSON(t, c, "POST", srv.URL+"/v1/views", CreateRequest{Name: "s", Within: 5, Seed: 3}, nil); code != 201 {
		t.Fatalf("create: %d", code)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/s/advance", AdvanceRequest{Left: []incshrink.Row{{1, 0}}}, nil); code != 200 {
		t.Fatalf("advance: %d", code)
	}
	var snap SnapshotResponse
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/s/snapshot", nil, &snap); code != 200 {
		t.Fatalf("snapshot: %d", code)
	}
	if snap.Step != 1 || snap.Path == "" {
		t.Fatalf("snapshot response %+v", snap)
	}
	if _, err := os.Stat(snap.Path); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/views/missing/snapshot", nil, nil); code != 404 {
		t.Fatalf("snapshot of unknown view: %d, want 404", code)
	}

	ephemeral := NewRegistry(Config{})
	defer ephemeral.Close(context.Background())
	esrv := httptest.NewServer(NewHandler(ephemeral))
	defer esrv.Close()
	if code := doJSON(t, esrv.Client(), "POST", esrv.URL+"/v1/views", CreateRequest{Name: "s", Within: 5}, nil); code != 201 {
		t.Fatal("create on ephemeral registry")
	}
	if code := doJSON(t, esrv.Client(), "POST", esrv.URL+"/v1/views/s/snapshot", nil, nil); code != 409 {
		t.Fatalf("snapshot without data dir: %d, want 409", code)
	}
}

// TestCloseIsAckBarrier pins the shutdown contract: writers race
// Registry.Close, CheckpointAll runs as soon as Close returns, and a fresh
// registry restores the data directory. Each restored view must stand at exactly as many steps as
// uploads on it returned success — none acknowledged and lost, none applied
// unacknowledged.
func TestCloseIsAckBarrier(t *testing.T) {
	const views, writersPerView = 4, 3
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	var acked [views]atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, views*writersPerView)
	for i := 0; i < views; i++ {
		v, err := reg.Create(fmt.Sprintf("v%d", i), durDef(), durOpts())
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writersPerView; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int64(1); ; k++ {
					_, err := v.Advance(context.Background(), []incshrink.Row{{k, 0}}, nil)
					switch {
					case err == nil:
						acked[i].Add(1)
					case errors.Is(err, ErrBusy):
						runtime.Gosched()
					case errors.Is(err, ErrClosed):
						return
					default:
						errc <- err
						return
					}
				}
			}()
		}
	}
	// Close while every writer is mid-stream.
	waitFor(t, func() bool {
		for i := range acked {
			if acked[i].Load() < 10 {
				return false
			}
		}
		return true
	})
	if err := reg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at once, while writers may still be returning: whatever
	// they are told from here on must already be in these checkpoints.
	if err := reg.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("upload failed: %v", err)
	}

	boot := NewRegistry(Config{DataDir: dir})
	defer boot.Close(context.Background())
	if restored, err := boot.RestoreAll(); err != nil || len(restored) != views {
		t.Fatalf("RestoreAll: %v, %v", restored, err)
	}
	for i := 0; i < views; i++ {
		v, err := boot.Get(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := v.Stats().Stats.Step, acked[i].Load(); int64(got) != want {
			t.Errorf("view v%d restored at step %d, but %d uploads were acknowledged", i, got, want)
		}
	}
}

// TestUnrestoredSnapshotKeepsItsName: a checkpoint this build cannot read —
// here a v9 snapshot whose version field says otherwise — fails RestoreAll
// with ErrVersionMismatch, and its file then reserves the name: a create of
// it is 409, and neither CheckpointAll nor Close writes over the file. Its
// bytes wait for a build that reads them, or an operator who moves them.
func TestUnrestoredSnapshotKeepsItsName(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(Config{DataDir: dir})
	v, err := reg.Create("v0", durDef(), durOpts())
	if err != nil {
		t.Fatal(err)
	}
	advanceN(t, v, 0, 6)
	path, _, err := v.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg.Close(context.Background())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := len(snapshot.Magic)
	if got := binary.LittleEndian.Uint32(data[at:]); got != snapshot.Version {
		t.Fatalf("version field %d, want %d", got, snapshot.Version)
	}
	binary.LittleEndian.PutUint32(data[at:], snapshot.Version+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	boot := NewRegistry(Config{DataDir: dir})
	if restored, err := boot.RestoreAll(); !errors.Is(err, snapshot.ErrVersionMismatch) || len(restored) != 0 {
		t.Fatalf("RestoreAll: restored %v, %v; want none, ErrVersionMismatch", restored, err)
	}
	srv := httptest.NewServer(NewHandler(boot))
	defer srv.Close()
	if code := doJSON(t, srv.Client(), "POST", srv.URL+"/v1/views", CreateRequest{Name: "v0", Within: 5, Seed: 3}, nil); code != 409 {
		t.Fatalf("create over an unrestored checkpoint: %d, want 409", code)
	}
	if err := boot.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	boot.Close(context.Background())
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the unrestored checkpoint changed (%v): %d bytes, was %d", err, len(after), len(data))
	}
}
