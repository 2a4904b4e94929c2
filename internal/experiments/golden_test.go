package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current run instead of
// comparing against them: go test ./internal/experiments -update.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// checkGolden compares a figure test's serial output with
// testdata/<test name>.golden. The goldens pin the exact bytes every figure
// prints, so a refactor of the harness that moves a seed, reorders a cell or
// changes a format verb fails here rather than silently drifting.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", t.Name()+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
