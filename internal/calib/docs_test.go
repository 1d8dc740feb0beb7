package calib

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeMapsEveryPackage holds README.md to being the repository's
// map: every directory of Go files under internal/ and cmd/ is named in
// it (examples/ may be named as one), and every internal/, cmd/ or
// examples/ path it names exists.
func TestReadmeMapsEveryPackage(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./-]*`).FindAllString(string(readme), -1) {
		path := strings.TrimRight(m, "./")
		if _, err := os.Stat(filepath.Join(root, path)); err != nil {
			t.Errorf("README names %s, which does not exist", m)
		}
		named[path] = true
	}
	for dir := range goFiles(t) {
		if !named[dir] && !(strings.HasPrefix(dir, "examples") && named["examples"]) {
			t.Errorf("README does not name %s", dir)
		}
	}
}

// TestEveryPackageHasOneDocComment: go doc prints the package comments
// of all a package's files one after another, so a second one (a doc.go
// beside the header of sim.go, say) would describe the package twice.
// Every package under internal/ has exactly one in its non-test files,
// whatever their build tags.
func TestEveryPackageHasOneDocComment(t *testing.T) {
	fset := token.NewFileSet()
	for dir, names := range goFiles(t) {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		var docs []string
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if f.Doc != nil {
				docs = append(docs, name)
			}
		}
		if len(docs) != 1 {
			t.Errorf("%s: package doc comments in %q, want exactly one", dir, docs)
		}
	}
}
