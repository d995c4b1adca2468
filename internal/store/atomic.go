package store

import (
	"fmt"
	"os"
	"path/filepath"

	"tifs/internal/vfs"
)

// AtomicWriteFileFS durably replaces path with data: the bytes are
// written to a sibling temp file (path + ".tmp"), fsynced, renamed into
// place, and the directory is fsynced so the replacement survives a
// crash. A failure at any step leaves either the old file or the new
// one, never a torn mix. Used for the compacted primary log and the
// shard lease manifest, which share the same crash-safety needs.
func AtomicWriteFileFS(fsys vfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if n, err := f.WriteAt(data, 0); err != nil || n != len(data) {
		f.Close()
		fsys.Remove(tmp)
		if err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(data))
		}
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	fsys.SyncDir(filepath.Dir(path))
	return nil
}
