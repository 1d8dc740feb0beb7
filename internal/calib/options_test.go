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

	files := parseRepository(t)

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

// parseRepository parses every non-test Go file of the repository:
// internal/, cmd/, examples/ and the nested bench/ module.
func parseRepository(t *testing.T) []*ast.File {
	t.Helper()
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
	return files
}

// TestExportedAPIHasACaller is the same census one level up: every
// exported top-level type, function and method of the packages below is
// referenced by non-test code outside its own package (bench/, cmd/ and
// examples/ count), or is on the allow-list with its reason. What only
// its own package and the tests reach need not be exported, and what
// nothing reaches need not exist.
//
// The scan is syntactic, like the one above. A type or function counts
// when another package names it as pkg.Name; a method counts by its name
// alone, on any selector outside its package, so a method that shares
// its name with a called one can hide here.
func TestExportedAPIHasACaller(t *testing.T) {
	packages := []string{"shuffle", "core"}
	allowed := map[string]string{
		"core.AutoExchange.RunSort":          "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.CacheExchange.RunSort":         "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.ObjectStorageExchange.RunSort": "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.VMExchange.RunSort":            "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.RunState":                      "the type of StageContext.State, which stage bodies outside core read through the field",
		"core.SortOutcome":                   "ExchangeStrategy.RunSort's result: a strategy outside core returns one",
		"core.StageOutcome":                  "the type of StageContext.Outcome, embedded in SortOutcome",
		"core.Workflow.StageNames":           "only tests call it (ROADMAP K.2)",
		"shuffle.AdaptiveChunkBytes":         "only the package and tests call it (ROADMAP K.2)",
		"shuffle.Boundary":                   "only the package and tests name it (ROADMAP K.2)",
		"shuffle.ErrLineTooLong":             "the error a caller would match with errors.As; none does yet (ROADMAP K.2)",
		"shuffle.MapStreamRates":             "only the package and tests call it (ROADMAP K.2)",
		"shuffle.runBuilder.Finish":          "an exported method of an unexported type (ROADMAP K.2)",
	}

	files := parseRepository(t)
	var exported []string                    // "pkg.Name" or "pkg.Recv.Name"
	named := map[string]bool{}               // "pkg.Name" selected outside pkg
	selected := map[string]map[string]bool{} // method name -> packages selecting it
	for _, f := range files {
		home := f.Name.Name
		if slices.Contains(packages, home) {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					name := home + "." + d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							name = home + "." + id.Name + "." + d.Name.Name
						}
					}
					exported = append(exported, name)
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						if ts, ok := sp.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							exported = append(exported, home+"."+ts.Name.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name != home {
				named[pkg.Name+"."+sel.Sel.Name] = true
			}
			if selected[sel.Sel.Name] == nil {
				selected[sel.Sel.Name] = map[string]bool{}
			}
			selected[sel.Sel.Name][home] = true
			return true
		})
	}
	if len(exported) < 50 {
		t.Fatalf("found %d exported names in %v, expected the packages' whole API", len(exported), packages)
	}

	var uncalled []string
	for _, name := range exported {
		parts := strings.Split(name, ".")
		reached := named[name]
		if len(parts) == 3 {
			for pkg := range selected[parts[2]] {
				reached = reached || pkg != parts[0]
			}
		}
		switch _, allow := allowed[name]; {
		case reached:
			if allow {
				t.Errorf("%s is on the allow-list and has a caller outside its package now: take it off", name)
			}
		case !allow:
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s is reached by no non-test code outside its package: unexport or remove it, or allow it with its reason", name)
	}
}
