// Package examples holds no code of its own: its test runs every example
// and compares what it prints with testdata/<example>.golden.
package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesOutputGolden builds every example under this directory and
// runs each with no arguments: its stdout must match its golden byte for
// byte. The simulation is deterministic, so any difference is a change
// in what the example computes. The goldens are compared and never
// rewritten; a deliberate change replaces one by hand and says why.
func TestExamplesOutputGolden(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	examples := 0
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "testdata" {
			continue
		}
		examples++
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatalf("no golden: %v", err)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
	if examples != len(goldens) {
		t.Errorf("%d examples but %d goldens", examples, len(goldens))
	}
}
