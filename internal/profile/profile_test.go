package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: stop leaves a gzip-compressed pprof file
// at each requested path, and a second stop is a no-op.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: not a gzip-compressed profile (%d bytes)", filepath.Base(p), len(b))
		}
	}
}

// TestStartWithoutPaths: no flags, no files, and stop still succeeds.
func TestStartWithoutPaths(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartBadPath: an uncreatable CPU profile path is an error up front.
func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Error("Start succeeded with a CPU profile path in a missing directory")
	}
}
