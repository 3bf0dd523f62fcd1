package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"incshrink"
	"incshrink/internal/obs"
)

// Durability for the serving layer. Every hosted view checkpoints to its
// own snapshot file <DataDir>/<url-escaped name>.snap (the escaping makes
// arbitrary registry names filesystem- and path-traversal-safe). Writes are
// atomic — temp file, fsync, rename, fsync of the directory — so a crash
// mid-checkpoint leaves the previous snapshot intact, a checkpoint that
// returned survives a power loss, and a restore always sees a complete
// stream (the snapshot's own CRC catches anything else). A file RestoreAll
// could not load keeps its name: Create refuses it with ErrExists.

// ErrNoDataDir reports a checkpoint or restore attempt on a registry
// configured without a data directory.
var ErrNoDataDir = errors.New("serve: no data directory configured")

// snapSuffix names checkpoint files.
const snapSuffix = ".snap"

// escapeName makes a view name filesystem-safe. url.PathEscape covers
// everything except the names "." and ".." (which it passes through, and
// which the filesystem would misinterpret); their dots are escaped
// explicitly so every legal registry name round-trips through a file name.
func escapeName(name string) string {
	esc := url.PathEscape(name)
	if esc == "." || esc == ".." {
		esc = strings.ReplaceAll(esc, ".", "%2E")
	}
	return esc
}

// snapPath maps a view name to its checkpoint file.
func (r *Registry) snapPath(name string) string {
	return filepath.Join(r.cfg.DataDir, escapeName(name)+snapSuffix)
}

// snapName recovers the view name from a checkpoint file name, reporting
// false for files that are not checkpoints.
func snapName(file string) (string, bool) {
	base, ok := strings.CutSuffix(file, snapSuffix)
	if !ok {
		return "", false
	}
	name, err := url.PathUnescape(base)
	if err != nil || name == "" {
		return "", false
	}
	return name, true
}

// checkpointAndUnlock snapshots the view's DB to its data-directory file.
// The caller holds mu, and checkpointAndUnlock releases it: the encode runs
// under mu (the DB must be quiescent while its state is read); fileMu is
// taken before mu is let go, so checkpoint files are written in encode
// order; and the disk write — fsync, rename — runs under fileMu alone, so
// readers and writers are not stalled behind storage. Returns the file path
// and the view's logical time at the checkpoint.
func (v *View) checkpointAndUnlock() (path string, step int, err error) {
	start := obs.Now()
	var buf bytes.Buffer
	err = v.db.Snapshot(&buf)
	step = v.db.Now()
	v.fileMu.Lock()
	v.mu.Unlock()
	defer v.fileMu.Unlock()
	defer func() {
		if err != nil {
			v.cpErrors.Add(1)
		} else {
			v.checkpoints.Add(1)
			if m := v.reg.met; m != nil {
				m.checkpointSeconds.ObserveDuration(obs.Since(start))
				m.checkpointBytes.Observe(float64(buf.Len()))
			}
		}
	}()
	if err != nil {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	if v.dropped {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, ErrClosed)
	}

	path = v.reg.snapPath(v.name)
	tmp, err := os.CreateTemp(v.reg.cfg.DataDir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	if err := tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	if err := v.reg.syncDir(); err != nil {
		return "", 0, fmt.Errorf("serve: checkpointing %q: %w", v.name, err)
	}
	return path, step, nil
}

// syncDir fsyncs the data directory, making a rename or a remove in it
// durable: without it, a power loss can undo a checkpoint that returned.
func (r *Registry) syncDir() error {
	d, err := os.Open(r.cfg.DataDir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Checkpoint writes a snapshot of the view on the caller's goroutine. It is
// a write like an upload — admitted against maxWriters, refused with
// ErrClosed once the view is closed, encoded under the view mutex — so the
// snapshot reflects every upload acknowledged before it and never tears a
// step. A registry without a data directory fails with ErrNoDataDir.
func (v *View) Checkpoint(ctx context.Context) (path string, step int, err error) {
	if v.reg.cfg.DataDir == "" {
		return "", 0, ErrNoDataDir
	}
	trace, _ := obs.TraceFrom(ctx)
	if err := v.enter(trace); err != nil {
		return "", 0, err
	}
	defer v.writers.Add(-1)
	return v.checkpointAndUnlock()
}

// CheckpointAll snapshots every registered view. It takes each view's mutex
// without admission and without the closed check, so it also works after
// Close — the graceful-shutdown path, where it captures every acknowledged
// upload. Errors are joined; every view is attempted.
func (r *Registry) CheckpointAll() error {
	if r.cfg.DataDir == "" {
		return ErrNoDataDir
	}
	var errs []error
	for _, v := range r.live() {
		v.mu.Lock()
		if _, _, err := v.checkpointAndUnlock(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// RestoreAll scans the data directory and re-registers every checkpointed
// view, rebuilding each from its snapshot (restore-on-boot). Views already
// registered under a snapshot's name are skipped with an error rather than
// overwritten. It returns the restored names in sorted order; on a partial
// failure the error names every snapshot that did not load while the
// successfully restored views stay registered and serving.
func (r *Registry) RestoreAll() ([]string, error) {
	if r.cfg.DataDir == "" {
		return nil, ErrNoDataDir
	}
	// While the restore sweep runs, /healthz reports not-ready: the tenant
	// set is incomplete, so routing traffic here would 404 views that are
	// about to exist.
	r.restoring.Store(true)
	defer r.restoring.Store(false)
	entries, err := os.ReadDir(r.cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading data directory: %w", err)
	}
	var restored []string
	var errs []error
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name, ok := snapName(ent.Name())
		if !ok {
			continue
		}
		if err := r.restoreOne(name, filepath.Join(r.cfg.DataDir, ent.Name())); err != nil {
			errs = append(errs, err)
			continue
		}
		restored = append(restored, name)
	}
	sort.Strings(restored)
	return restored, errors.Join(errs...)
}

func (r *Registry) restoreOne(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: restoring %q: %w", name, err)
	}
	defer f.Close()
	db, err := incshrink.Restore(f)
	if err != nil {
		return fmt.Errorf("serve: restoring %q from %s: %w", name, path, err)
	}
	if _, err := r.register(name, db); err != nil {
		return fmt.Errorf("serve: restoring %q: %w", name, err)
	}
	return nil
}
