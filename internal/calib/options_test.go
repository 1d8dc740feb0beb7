package calib

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestOptionsHaveACaller is the census that found the options nobody set
// (the planner's warm-cache flag, the VM provisioner's boot jitter, the
// shuffle's speculation tuning), kept as a test: every exported field of
// the structs a caller configures a sort, a strategy, a map stage, the
// planner, a session, a cache, the VM provisioner or the kernel with is
// assigned in some non-test file of the repository (bench/, cmd/ and
// examples/ count), or is on the allow-list with its reason. An option
// only tests set is a configuration nobody runs.
//
// The root module is type-checked, so a field counts only where it is
// set on its own struct: a keyed field of a composite literal of that
// type (elided types included), or an assignment x.Field = ... whose x
// resolves to it, through embedding too. bench/ is a module of its own
// and keeps the syntactic rule: a literal counts when it names the
// struct, an assignment by the field's name alone.
func TestOptionsHaveACaller(t *testing.T) {
	structs := map[string][]string{ // package (its directory's name) -> types
		"shuffle":  {"Spec", "HierSpec", "CacheSpec"},
		"core":     {"VMExchange", "CacheExchange", "AutoExchange", "MapStage"},
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

	repo := parseRepository(t)
	files := repo.files()

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

	info := repo.typeCheck(t)
	set := map[string]bool{}    // "pkg.Type.Field" set on that type
	byName := map[string]bool{} // "Field" on the left of an assignment in bench/
	for dir, pkgFiles := range repo.dirs {
		typed := !isBench(dir)
		for _, f := range pkgFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					owner := literalOwner(f, n)
					if typed {
						owner = typeName(info.Types[n].Type)
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[owner+"."+key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if !typed {
							byName[sel.Sel.Name] = true
						} else if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							set[fieldOwner(s)+"."+sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for owner, names := range fields {
		for _, name := range names {
			option := owner + "." + name
			switch _, allow := allowed[option]; {
			case set[option] || byName[name]:
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

// literalOwner is the syntactic owner of a composite literal in f: the
// struct it names, pkg.Type elsewhere or Type at home.
func literalOwner(f *ast.File, n *ast.CompositeLit) string {
	switch typ := n.Type.(type) {
	case *ast.Ident:
		return f.Name.Name + "." + typ.Name
	case *ast.SelectorExpr:
		if pkg, ok := typ.X.(*ast.Ident); ok {
			return pkg.Name + "." + typ.Sel.Name
		}
	}
	return ""
}

// typeName names a named type, or one a pointer points to, as
// "pkg.Type"; "" for any other type.
func typeName(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return ""
}

// fieldOwner names the struct that declares the field a selection
// picks, following the path through embedded fields.
func fieldOwner(sel *types.Selection) string {
	t := sel.Recv()
	path := sel.Index()
	for _, i := range path[:len(path)-1] {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	return typeName(t)
}

// repository is every non-test Go file of the repository that builds
// here, parsed, by directory: internal/, cmd/, examples/ and the nested
// bench/ module.
type repository struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
}

func parseRepository(t *testing.T) repository {
	t.Helper()
	repo := repository{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join("..", "..", root), func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			pkg, err := build.Default.ImportDir(dir, 0)
			if errors.As(err, new(*build.NoGoError)) {
				return nil
			}
			if err != nil {
				return err
			}
			for _, name := range pkg.GoFiles {
				f, err := parser.ParseFile(repo.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				repo.dirs[dir] = append(repo.dirs[dir], f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(repo.files()); n < 100 {
		t.Fatalf("scanned %d files, expected the whole repository", n)
	}
	return repo
}

// files lists every parsed file.
func (r repository) files() []*ast.File {
	var all []*ast.File
	for _, fs := range r.dirs {
		all = append(all, fs...)
	}
	return all
}

// isBench reports whether dir is in the nested bench/ module.
func isBench(dir string) bool {
	return strings.HasPrefix(dir, filepath.Join("..", "..", "bench"))
}

// typeCheck type-checks every package of the root module once and
// records what it resolves.
func (r repository) typeCheck(t *testing.T) *types.Info {
	t.Helper()
	imp := &moduleImporter{
		repo: r,
		std:  importer.ForCompiler(r.fset, "source", nil),
		done: map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	root := filepath.Join("..", "..")
	for dir := range r.dirs {
		if isBench(dir) {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err == nil {
			_, err = imp.Import(module + "/" + filepath.ToSlash(rel))
		}
		if err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
	}
	return imp.info
}

// module is the root module's path.
const module = "github.com/faaspipe/faaspipe"

// moduleImporter type-checks the root module's packages from the parsed
// files, each once, as they are first imported; the standard library it
// type-checks from source.
type moduleImporter struct {
	repo repository
	std  types.Importer
	done map[string]*types.Package
	info *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg := m.done[path]; pkg != nil {
		return pkg, nil
	}
	rel, ok := strings.CutPrefix(path, module+"/")
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.repo.fset, m.repo.dirs[filepath.Join("..", "..", rel)], m.info)
	m.done[path] = pkg
	return pkg, err
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
		"core.Workflow.StageNames":           "genomics/errors_test.go reads the pipeline's shape through it",
		"shuffle.AdaptiveChunkBytes":         "fold_meter_test and autoplan's cost_oracle_test re-derive the model through them",
		"shuffle.MapStreamRates":             "fold_meter_test and autoplan's cost_oracle_test re-derive the model through them",
	}

	files := parseRepository(t).files()
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
