package speccache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Disk spill: the Laplacian record (λ₂, λ_max) and the non-uniform γ_P are
// pure functions of the graph fingerprint, so they can be shared across
// processes through small JSON files — one per fingerprint — in a spill
// directory. This is what
// keeps m shard processes of one sharded sweep from each paying the same
// O(n³) eigensolves: the first process to need a quantity computes and
// writes it, the rest load it.
//
// The spill is strictly a second cache level below the in-memory maps: a
// scalar is looked up in memory first, then on disk, and only then computed
// (and written back). Disk failures of any kind — unreadable directory,
// corrupt or torn file, failed write — degrade silently to a recompute;
// the cache never turns an I/O problem into a wrong or missing result.
// Writes go through a temp file plus rename, so concurrent shard processes
// can share a directory without ever observing a half-written entry (they
// may both compute the same value once and race the rename — last writer
// wins with an identical payload, since the quantities are deterministic).
//
// Optimal flows are not spilled: they are keyed on the load vector as well
// as the graph, so cross-process reuse is rare, and their payload is O(m)
// edges rather than one float.
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

// diskKeys names a quantity's values inside the entry file, in order
// (ASCII, stable across versions — these strings are the on-disk format).
// Flows are not spilled.
func (q quantity) diskKeys() []string {
	switch q {
	case qLaplacian:
		return []string{"lambda2", "lambda_max"}
	case qPaperGamma:
		return []string{"gamma_paper"}
	}
	return nil
}

// diskLoad tries to read quantity q of fingerprint fp from the spill. It
// misses unless every one of q's keys is present, so an entry that holds
// only some of them (say, λ₂ without λ_max) recomputes.
func (c *Cache) diskLoad(q quantity, fp uint64) ([]float64, bool) {
	dir := c.spillDir()
	if dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(diskFileName(dir, fp))
	if err != nil {
		return nil, false
	}
	entry := map[string]float64{}
	if json.Unmarshal(raw, &entry) != nil {
		return nil, false // torn or corrupt entry: recompute, don't fail
	}
	keys := q.diskKeys()
	vals := make([]float64, len(keys))
	for i, k := range keys {
		v, ok := entry[k]
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// diskSave merges quantity q's values for fingerprint fp into the spill
// entry, atomically (temp file + rename). Failures are silent: the value is
// already memoized in memory, and the next process simply recomputes.
func (c *Cache) diskSave(q quantity, fp uint64, vals []float64) {
	dir := c.spillDir()
	if dir == "" {
		return
	}
	path := diskFileName(dir, fp)
	entry := map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		// Merge with whatever quantities another process already spilled;
		// a corrupt existing entry is simply overwritten.
		_ = json.Unmarshal(raw, &entry)
	}
	for i, k := range q.diskKeys() {
		entry[k] = vals[i]
	}
	raw, err := json.Marshal(entry)
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
