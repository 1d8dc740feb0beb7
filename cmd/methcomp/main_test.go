package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/bed"
)

// writeInput writes generated records as a bedMethyl file and returns
// its path and bytes.
func writeInput(t *testing.T, dir string, sorted bool) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := bed.Write(&buf, bed.Generate(bed.GenConfig{Records: 3000, Seed: 5, Sorted: sorted})); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("in-sorted-%v.bed", sorted))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestCompressDecompressRestoresTheFile: -c then -d gives back the
// input TSV byte for byte, sorted or not.
func TestCompressDecompressRestoresTheFile(t *testing.T) {
	dir := t.TempDir()
	for _, sorted := range []bool{true, false} {
		in, raw := writeInput(t, dir, sorted)
		mcz, back := filepath.Join(dir, "out.mcz"), filepath.Join(dir, "back.bed")
		var out bytes.Buffer
		if err := run(&out, in, "", "", mcz); err != nil {
			t.Fatalf("-c: %v", err)
		}
		if err := run(&out, "", mcz, "", back); err != nil {
			t.Fatalf("-d: %v", err)
		}
		got, err := os.ReadFile(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("sorted=%v: restored file differs from the input (%d vs %d bytes)", sorted, len(got), len(raw))
		}
		if s := out.String(); !strings.HasPrefix(s, "3000 records, ") || !strings.HasSuffix(s, "3000 records restored\n") {
			t.Fatalf("sorted=%v: output %q", sorted, s)
		}
	}
}

// TestStatsReportsAnAdvantage: -stats on sorted records prints METHCOMP
// better than gzip.
func TestStatsReportsAnAdvantage(t *testing.T) {
	in, _ := writeInput(t, t.TempDir(), true)
	var out bytes.Buffer
	if err := run(&out, "", "", in, ""); err != nil {
		t.Fatal(err)
	}
	var adv float64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "advantage:") {
			if _, err := fmt.Sscanf(line, "advantage: %fx better than gzip", &adv); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if adv <= 1 {
		t.Fatalf("advantage %.1f, want > 1; output:\n%s", adv, out.String())
	}
}

// TestRunRefusesBadFlags: no mode, or a mode without -o, is an error.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][4]string{{}, {"x.bed", "", "", ""}, {"", "x.mcz", "", ""}} {
		if err := run(&bytes.Buffer{}, args[0], args[1], args[2], args[3]); err == nil {
			t.Errorf("run%q succeeded", args)
		}
	}
}
