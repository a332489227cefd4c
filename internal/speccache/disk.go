package speccache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/spectral"
)

// Disk spill: the Laplacian record (λ₂, λ_max) is a pure function of the
// graph fingerprint, so it can be shared across processes through small
// JSON files — one per fingerprint — in a spill directory. This is what
// keeps m shard processes of one sharded sweep from each paying the same
// O(n³) eigensolves: the first process to need a record computes and
// writes it, the rest load it.
//
// The spill is strictly a second cache level below the in-memory map: a
// record is looked up in memory first, then on disk, and only then computed
// (and written back). Disk failures of any kind — unreadable directory,
// corrupt or torn file, failed write — degrade silently to a recompute;
// the cache never turns an I/O problem into a wrong or missing result.
// Writes go through a temp file plus rename, so concurrent shard processes
// can share a directory without ever observing a half-written entry (they
// may both compute the same record once and race the rename — last writer
// wins with an identical payload, since the record is deterministic).
//
// The shared cache enables the spill automatically when the
// LB_SPECCACHE_DIR environment variable names a directory (created if
// absent); any cache can opt in with SetDiskDir.

// EnvDiskDir is the environment variable that, when set, points the shared
// cache's disk spill at a directory.
const EnvDiskDir = "LB_SPECCACHE_DIR"

func init() {
	if dir := os.Getenv(EnvDiskDir); dir != "" {
		// Best-effort: a bad directory must not break a process that never
		// asked for spilling explicitly.
		_ = shared.SetDiskDir(dir)
	}
}

// SetDiskDir enables the disk spill under dir (created if absent). Pass ""
// to disable. Safe to call concurrently with lookups; entries already
// memoized in memory are unaffected.
func (c *Cache) SetDiskDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("speccache: disk spill: %w", err)
		}
	}
	c.mu.Lock()
	c.diskDir = dir
	c.mu.Unlock()
	return nil
}

// spillDir snapshots the spill directory ("" = disabled).
func (c *Cache) spillDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskDir
}

// diskFileName is the per-fingerprint entry file.
func diskFileName(dir string, fp uint64) string {
	return filepath.Join(dir, fmt.Sprintf("spec-%016x.json", fp))
}

// diskEntry is the on-disk format (these key names are stable across
// versions). Pointers tell a missing key from a zero value; keys the record
// does not use (an older entry's "gamma" or "gamma_paper") are ignored.
type diskEntry struct {
	Lambda2   *float64 `json:"lambda2"`
	LambdaMax *float64 `json:"lambda_max"`
}

// diskLoad tries to read fingerprint fp's record from the spill. It misses
// unless both keys are present, so an entry that holds λ₂ without λ_max
// recomputes.
func (c *Cache) diskLoad(fp uint64) (spectral.Laplacian, bool) {
	dir := c.spillDir()
	if dir == "" {
		return spectral.Laplacian{}, false
	}
	raw, err := os.ReadFile(diskFileName(dir, fp))
	if err != nil {
		return spectral.Laplacian{}, false
	}
	var e diskEntry
	if json.Unmarshal(raw, &e) != nil || e.Lambda2 == nil || e.LambdaMax == nil {
		return spectral.Laplacian{}, false // torn, corrupt or older entry: recompute, don't fail
	}
	return spectral.Laplacian{Lambda2: *e.Lambda2, LambdaMax: *e.LambdaMax}, true
}

// diskSave writes fingerprint fp's record to the spill, atomically (temp
// file + rename). Failures are silent: the record is already memoized in
// memory, and the next process simply recomputes.
func (c *Cache) diskSave(fp uint64, r spectral.Laplacian) {
	dir := c.spillDir()
	if dir == "" {
		return
	}
	raw, err := json.Marshal(diskEntry{Lambda2: &r.Lambda2, LambdaMax: &r.LambdaMax})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "spec-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), diskFileName(dir, fp)); err != nil {
		os.Remove(tmp.Name())
	}
}
