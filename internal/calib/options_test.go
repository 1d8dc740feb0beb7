package calib

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestOptionsHaveACaller is the census that found the options PR 24
// removed (the planner's warm-cache flag, the VM provisioner's boot
// jitter), kept as a test: every exported field of the structs a caller
// configures a sort, a strategy, a map stage, the planner, a session, a
// cache, the VM provisioner or the kernel with is assigned in some
// non-test file of the repository (bench/, cmd/ and examples/ count), or
// is on the allow-list with its reason. An option only tests set is a
// configuration nobody runs.
//
// The scan is syntactic. A keyed field of a composite literal counts
// when the literal names the struct (pkg.Type{...} elsewhere, Type{...}
// at home); an assignment x.Field = ... counts by the field's name alone,
// since x has no type without a type check, so a field that shares its
// name with one assigned on another struct can hide here.
func TestOptionsHaveACaller(t *testing.T) {
	structs := map[string][]string{ // package (its directory's name) -> types
		"shuffle":  {"Spec", "HierSpec", "CacheSpec"},
		"core":     {"SortParams", "VMExchange", "CacheExchange", "AutoExchange", "MapStage"},
		"autoplan": {"Env"},
		"session":  {"Options"},
		"memcache": {"Config"},
		"vm":       {"Provisioner"},
		"des":      {"Sim"},
	}
	allowed := map[string]string{
		"shuffle.Spec.StreamChunkBytes":  "the tests' seam for chunk-boundary carries on small inputs",
		"shuffle.Spec.CleanupScratch":    "ROADMAP direction H's teardown ledger names it",
		"memcache.Config.AllowEviction":  "the eviction path a cluster takes when a caller undersizes it; the operators oversize instead",
		"session.Options.StandingVMType": "the standing instance's type: session.Open takes it, no CLI flag reaches it yet",
		"des.Sim.MaxEvents":              "a guard against a runaway simulation, not a scheduling feature",
		"core.MapStage.StaticInputs":     "a map stage with no sort before it: the workflow API's form for a fixed key list",
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join("..", "..", root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err == nil {
				files = append(files, f)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) < 100 {
		t.Fatalf("scanned %d files, expected the whole repository", len(files))
	}

	// fields: "pkg.Type" -> its exported fields, embedded ones included.
	fields := map[string][]string{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			owner := f.Name.Name + "." + ts.Name.Name
			if !ok || !slices.Contains(structs[f.Name.Name], ts.Name.Name) {
				return false
			}
			fields[owner] = nil // found, even if nothing in it is exported
			for _, fl := range st.Fields.List {
				names := fl.Names
				if names == nil { // embedded: the field is named after its type
					if id, ok := fl.Type.(*ast.Ident); ok {
						names = []*ast.Ident{id}
					}
				}
				for _, id := range names {
					if id.IsExported() {
						fields[owner] = append(fields[owner], id.Name)
					}
				}
			}
			return false
		})
	}
	want := 0
	for _, types := range structs {
		want += len(types)
	}
	if len(fields) != want {
		t.Fatalf("found %d of the %d option structs: %v", len(fields), want, fields)
	}

	keyed := map[string]bool{}    // "pkg.Type.Field" set in a literal of that type
	assigned := map[string]bool{} // "Field" on the left of an assignment
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var owner string
				switch typ := n.Type.(type) {
				case *ast.Ident:
					owner = f.Name.Name + "." + typ.Name
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); ok {
						owner = pkg.Name + "." + typ.Sel.Name
					}
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							keyed[owner+"."+key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}

	var unset []string
	for owner, names := range fields {
		for _, name := range names {
			option := owner + "." + name
			switch _, allow := allowed[option]; {
			case keyed[option] || assigned[name]:
				if allow {
					t.Errorf("%s is on the allow-list and has a caller now: take it off", option)
				}
			case !allow:
				unset = append(unset, option)
			}
		}
	}
	sort.Strings(unset)
	for _, option := range unset {
		t.Errorf("%s is assigned in no non-test file: remove the option, or allow it with its reason", option)
	}
}
