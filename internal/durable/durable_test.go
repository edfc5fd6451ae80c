package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epoch")
	for _, want := range []string{"1\n", "22\n", ""} {
		if err := WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("content = %q, %v; want %q", got, err, want)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", fi.Mode().Perm())
	}
	assertOnly(t, dir, "epoch")
}

// TestWriteFileFailedRenameLeavesNoTemp makes the rename fail — the target
// is a non-empty directory — and checks the error surfaces and no temp
// file is left beside it.
func TestWriteFileFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("data"), 0o600); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	assertOnly(t, dir, "target")
}

// assertOnly checks dir holds exactly the named entry.
func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
