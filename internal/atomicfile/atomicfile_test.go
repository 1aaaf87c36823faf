package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplacesWholesale: a second write replaces the first
// completely, the result is world-readable, and the rename consumed the
// only temp file.
func TestWriteFileReplacesWholesale(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	for _, data := range []string{"a longer first version", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "second" {
		t.Fatalf("content = %q, want %q", b, "second")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", st.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want only the artifact", len(entries))
	}
}

// TestWriteFailedFillKeepsOldFile: when fill fails midway, the previous
// file is untouched and no temp file is left behind, even though part
// of the new content was already written.
func TestWriteFailedFillKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("content = %q after a failed write, want %q", b, "old")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("dir has %d entries, want only the artifact", len(entries))
	}
}

// TestWriteFileFailureLeavesNothing: a write that cannot happen returns
// the error and creates no file.
func TestWriteFileFailureLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "artifact.json")
	if err := WriteFile(path, []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stat after failed write: %v, want not-exist", err)
	}
}
