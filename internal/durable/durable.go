// Package durable replaces files so that a crash or power loss at any
// point leaves either the old content or the new, never a torn or empty
// file: the PM and SSD device snapshots and the sequencer's epoch file
// all go through WriteFile.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path's content with data. It writes a temp file in
// path's directory, fsyncs and closes it, renames it over path and fsyncs
// the directory, so the rename itself survives a power loss. On any
// failure the temp file is removed and path is left as it was.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = tmp.Chmod(perm)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
