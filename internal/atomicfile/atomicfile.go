// Package atomicfile is physdep's one crash-safe file writer. Every
// artifact the repo writes — golden tables, bench records, run
// manifests, interchange documents, the daemon's cache snapshot — goes
// through it, so a crash, a cancellation or a power loss mid-write
// leaves either the previous file or the complete new one, never a torn
// mix.
package atomicfile

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with whatever fill writes. fill writes through a
// buffer into a temp file in path's directory; the buffer is flushed and
// the file synced to stable storage and closed before it is renamed over
// path. Rename is atomic within a directory and the sync orders the
// bytes before the rename, so after any crash path holds the old content
// or all of the new. If fill or any step fails, path is untouched and the
// temp file is removed. The file gets mode 0644.
func Write(path string, fill func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteFile replaces path with data (see Write).
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteJSON writes v as two-space-indented JSON with a trailing newline,
// the shape of every JSON artifact the CLIs write.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFile(path, append(b, '\n'))
}
