package calib

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciEntry is one line of .github/ci-tests.txt: CI's step, the package
// and the name of a test, fuzz target or benchmark it runs.
type ciEntry struct{ step, pkg, name string }

// The steps the manifest's rules name: allocation budgets run without
// the race detector, and every fuzz target gets its smoke run.
const ciBudgetStep, ciFuzzStep = "budgets", "fuzz"

// TestCIManifest holds .github/ci-tests.txt to the code. A -run or -fuzz
// regex that matches nothing exits 0, so a name CI runs must be a
// top-level Test, Fuzz or Benchmark of its package, found by parsing its
// _test.go files, which no build tag hides from go/parser. A test that
// reads destest.Race skips or stops short under the detector, which the
// race steps and the whole-suite step run, so it must be in the budgets
// step; every Fuzz target under internal/ must be in the fuzz step; and
// each step the manifest lists must be one ci.yml runs, and each one it
// runs listed. A manifest with a name dropped or misspelled must fail.
func TestCIManifest(t *testing.T) {
	entries := readCIManifest(t)
	funcs := testFuncs(t)
	steps := ciYAMLSteps(t)
	for _, p := range checkCIManifest(entries, funcs, steps) {
		t.Error(p)
	}

	without := func(i int) []ciEntry { return slices.Delete(slices.Clone(entries), i, i+1) }
	raceBudget := slices.IndexFunc(entries, func(e ciEntry) bool { return e.step == ciBudgetStep && funcs[e.pkg][e.name] })
	fuzz := slices.IndexFunc(entries, func(e ciEntry) bool { return e.step == ciFuzzStep })
	if raceBudget < 0 || fuzz < 0 {
		t.Fatal("the manifest lists no budget that reads destest.Race, or no fuzz target")
	}
	misspelled := slices.Clone(entries)
	misspelled[0].name += "s"
	for _, c := range []struct {
		what, name string
		entries    []ciEntry
	}{
		{"budget dropped", entries[raceBudget].name, without(raceBudget)},
		{"fuzz target dropped", entries[fuzz].name, without(fuzz)},
		{"name misspelled", misspelled[0].name, misspelled},
	} {
		problems := checkCIManifest(c.entries, funcs, steps)
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, " "+c.name+":") }) {
			t.Errorf("%s: the check does not name %s, it found %q", c.what, c.name, problems)
		}
	}
}

// checkCIManifest lists what is wrong with a manifest. funcs is every
// top-level function of every package's _test.go files, by package and
// name, true when it reads destest.Race; steps is the set ci.yml runs.
func checkCIManifest(entries []ciEntry, funcs map[string]map[string]bool, steps map[string]bool) []string {
	var problems []string
	listed := map[ciEntry]bool{}
	stepListed := map[string]bool{}
	for _, e := range entries {
		listed[e], stepListed[e.step] = true, true
		_, ok := funcs[e.pkg][e.name]
		if !ok || !strings.HasPrefix(e.name, "Test") && !strings.HasPrefix(e.name, "Fuzz") && !strings.HasPrefix(e.name, "Benchmark") {
			problems = append(problems, fmt.Sprintf("%s %s: not a top-level Test, Fuzz or Benchmark of its package", e.pkg, e.name))
		}
	}
	for pkg, fns := range funcs {
		if !strings.HasPrefix(pkg, "./internal/") {
			continue
		}
		for name, readsRace := range fns {
			if readsRace && !listed[ciEntry{ciBudgetStep, pkg, name}] {
				problems = append(problems, fmt.Sprintf("%s %s: reads destest.Race but is not in step %s", pkg, name, ciBudgetStep))
			}
			if strings.HasPrefix(name, "Fuzz") && !listed[ciEntry{ciFuzzStep, pkg, name}] {
				problems = append(problems, fmt.Sprintf("%s %s: a fuzz target not in step %s", pkg, name, ciFuzzStep))
			}
		}
	}
	for step := range stepListed {
		if !steps[step] {
			problems = append(problems, fmt.Sprintf("step %s: listed, but ci.yml never runs it", step))
		}
	}
	for step := range steps {
		if !stepListed[step] {
			problems = append(problems, fmt.Sprintf("step %s: ci.yml runs it, but it lists nothing", step))
		}
	}
	slices.Sort(problems)
	return problems
}

// readCIManifest parses .github/ci-tests.txt, skipping comments and
// blank lines.
func readCIManifest(t *testing.T) []ciEntry {
	t.Helper()
	f, err := os.Open(filepath.Join(root, ".github", "ci-tests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []ciEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 4 {
			t.Fatalf("ci-tests.txt: %q is not STEP PACKAGE NAME REASON", sc.Text())
		}
		entries = append(entries, ciEntry{fields[0], fields[1], fields[2]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// ciYAMLSteps is the set of manifest steps ci.yml runs.
func ciYAMLSteps(t *testing.T) map[string]bool {
	t.Helper()
	yml, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*(?:run: )?\.github/ci-tests\.sh (\S+)`).FindAllStringSubmatch(string(yml), -1) {
		steps[m[1]] = true
	}
	return steps
}

// testFuncs parses every _test.go file under internal/, cmd/ and
// examples/ and returns each package's top-level functions, by
// "./"-relative package path and name, true for those that read
// destest.Race.
func testFuncs(t *testing.T) map[string]map[string]bool {
	t.Helper()
	funcs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for dir, names := range goFiles(t) {
		pkg := "./" + dir
		for _, name := range names {
			if !strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(root, dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				if funcs[pkg] == nil {
					funcs[pkg] = map[string]bool{}
				}
				funcs[pkg][fn.Name.Name] = readsRace(fn)
			}
		}
	}
	return funcs
}

// readsRace reports whether fn's body reads destest.Race.
func readsRace(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Race" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "destest" {
				found = true
			}
		}
		return !found
	})
	return found
}

// goFiles lists the .go files of every directory under internal/, cmd/
// and examples/ that has any, by slash-separated path from the root.
func goFiles(t *testing.T) map[string][]string {
	t.Helper()
	dirs := map[string][]string{}
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			rel = filepath.ToSlash(rel)
			dirs[rel] = append(dirs[rel], d.Name())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}
