package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wallClock matches the one line of faasbench's output that depends on
// the host: the gatewayscale kernel throughput. Its event count is
// simulated and stays pinned; the wall time and rate are masked.
var wallClock = regexp.MustCompile(`(?m)^(kernel: \d+ events) in .*$`)

// TestGolden pins every number faasbench prints at the CLI defaults:
// the experiment layer may be restructured freely as long as these
// bytes hold. Regenerate (deliberate changes only, each explained in
// CHANGES.md) with `go test ./cmd/faasbench -run Golden -update`.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at paper scale (~20 s)")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.golden", []string{"-experiment", "all"}},
		{"table1_auto_trace.golden", []string{"-experiment", "table1", "-auto", "-trace"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := cli(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("faasbench %v: exit %d\n%s", tc.args, code, stderr.Bytes())
			}
			got := wallClock.ReplaceAll(stdout.Bytes(), []byte("$1 in <wall-clock>"))
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var g, w []byte
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if !bytes.Equal(g, w) {
					t.Fatalf("faasbench %v drifted from %s at line %d:\n got: %s\nwant: %s", tc.args, path, i+1, g, w)
				}
			}
		})
	}
}
