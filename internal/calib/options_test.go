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
	"sync"
	"testing"
)

// TestOptionsHaveACaller is the census that found the options nobody set
// (the planner's warm-cache flag, the VM provisioner's boot jitter, the
// shuffle's speculation tuning, the profile's cache and brownout knobs),
// kept as a test: every exported field of the structs a caller
// configures the cloud, a sort, a stage, a strategy, the planner, a
// session, the gateway, the chaos process, the pipelines or the kernel
// with is assigned in some non-test file of the repository (bench/, cmd/
// and examples/ count), or is on the allow-list with its reason. An
// option only tests set is a configuration nobody runs.
//
// Every package is type-checked, bench/ included, so a field counts only
// where it is set on its own struct: a keyed field of a composite literal
// of that type (elided types included), or an assignment x.Field = ...
// whose x resolves to it, through embedding too. A package's own default
// does not count: an assignment to a field, in the package declaring it,
// under an if whose condition reads that field (the planner filling in
// Env.VMSortBps is one).
func TestOptionsHaveACaller(t *testing.T) {
	structs := map[string][]string{ // package (its directory's name) -> types
		"autoplan":    {"Env", "Workload", "Objective"},
		"bed":         {"GenConfig"},
		"calib":       {"Profile"},
		"chaos":       {"Process", "Event"},
		"core":        {"VMExchange", "CacheExchange", "AutoExchange", "MapStage", "SortStage", "FuncStage"},
		"des":         {"Sim"},
		"faas":        {"Config", "InvokeOptions"},
		"gateway":     {"Options", "TenantConfig"},
		"genomics":    {"PipelineConfig"},
		"memcache":    {"Config"},
		"objectstore": {"Config", "StreamOptions", "PutStreamOptions"},
		"pipeline":    {"JobConfig"},
		"session":     {"Options", "Job"},
		"shuffle":     {"Spec", "HierSpec", "CacheSpec", "PlanInput"},
		"vm":          {"Provisioner"},
	}
	allowed := map[string]string{
		"shuffle.Spec.StreamChunkBytes":  "the tests' seam for chunk-boundary carries on small inputs: TestGoldenMidLineChunksMatchSeed, TestStreamedReduceOverlapsTransfer",
		"shuffle.Spec.CleanupScratch":    "ROADMAP direction H's teardown ledger names it; TestSortCleanupScratch and TestHierSortCleanupScratch set it",
		"session.Options.StandingVMType": "the standing instance's type: session.Open takes it, no CLI flag reaches it yet; TestStandingVMSharedAcrossSubmissions sets it",
		"des.Sim.MaxEvents":              "a guard against a runaway simulation, not a scheduling feature: TestMaxEventsLimit, TestMaxEventsKillsSleeperWake",
		"core.MapStage.StaticInputs":     "a map stage with no sort before it, the workflow API's form for a fixed key list: TestMapStageFansOut",
		"autoplan.Env.CacheMaxNodes":     "the cache quota: only model_table.golden's environments and the planner tests' flipEnv set it; it is load-bearing, since at 0 TestStrategyFlipsWithVolume picks memcache at 64, 100, 250 and 1,000 GB",
	}

	repo := loadRepository(t)
	var options []*types.Var
	name := map[*types.Var]string{}
	for pkgName, typeNames := range structs {
		pkg := repo.packageNamed(t, pkgName)
		for _, typeName := range typeNames {
			obj := pkg.Scope().Lookup(typeName)
			if obj == nil {
				t.Fatalf("%s.%s: no such type", pkgName, typeName)
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Fatalf("%s.%s is not a struct", pkgName, typeName)
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					options = append(options, f)
					name[f] = pkgName + "." + typeName + "." + f.Name()
				}
			}
		}
	}

	// field is the field e names as x.F or as a literal's key F, or nil.
	field := func(e ast.Expr) *types.Var {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := repo.info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
		}
		return nil
	}
	set := map[*types.Var]bool{}
	defaults := map[ast.Expr]bool{} // left-hand sides that are a package's own default
	for dir, files := range repo.dirs {
		home := repo.packageIn(dir)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					tested := map[*types.Var]bool{}
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if sel, ok := c.(*ast.SelectorExpr); ok && field(sel) != nil {
							tested[field(sel)] = true
						}
						return true
					})
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok {
							for _, lhs := range as.Lhs {
								if v := field(lhs); v != nil && tested[v] && v.Pkg() == home {
									defaults[lhs] = true
								}
							}
						}
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && field(kv.Key) != nil {
							set[field(kv.Key)] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if v := field(lhs); v != nil && !defaults[lhs] {
							set[v] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	for _, f := range options {
		switch _, allow := allowed[name[f]]; {
		case set[f]:
			if allow {
				t.Errorf("%s is on the allow-list and has a caller now: take it off", name[f])
			}
		case !allow:
			unset = append(unset, name[f])
		}
	}
	sort.Strings(unset)
	for _, option := range unset {
		t.Errorf("%s is assigned in no non-test file: remove the option, or allow it with its reason", option)
	}
	checkAllowList(t, allowed, name)
}

// TestExportedAPIHasACaller is the same census one level up, over every
// package under internal/: every type, function and method declared in a
// non-test file is referenced by non-test code (bench/, cmd/ and
// examples/ count), or is on the allow-list with its reason, which
// names the test or golden that reads it. What nothing but the tests
// reaches is a configuration nobody runs, and what nothing reaches need
// not exist.
//
// internal/des/destest is test support, not API: its names are for
// tests and are left out, what it calls is not reached by it, and no
// non-test file outside it may import it, so what it exempts runs in
// no program.
//
// The exported names of shuffle and core answer to a stricter rule: each
// one that is reached is reached from outside its own package, or is on
// the second allow-list with its reason. What only its own package
// reaches need not be exported.
//
// References are resolved by the type checker, so a method counts only
// where it is selected on its own type (embedding included), not where
// another method of the same name is called. A method reached through an
// interface counts when the interface's method is called (from another
// package, for the stricter rule) and the type implements the interface,
// or when the standard library calls it through one of stdDispatch's
// interfaces. A function that only calls itself is not reached.
func TestExportedAPIHasACaller(t *testing.T) {
	allowed := map[string]string{
		"autoplan.History.MarshalJSON":    "TestStageBillsPinned reads the planner's exact sums through json.Marshal into stage_bills.golden",
		"bed.IsSorted":                    "TestSortAndIsSorted, TestKeySortedMatchesLessSorted and the shuffle and core sort tests check their output with it",
		"chaos.EventError.Unwrap":         "TestValidate and FuzzPlanValidate match the sentinel errors through errors.Is",
		"core.Workflow.StageNames":        "TestBuildPipelineDefaults (genomics/errors_test.go) reads the pipeline's shape through it",
		"des.Event.At":                    "TestCancelAfterSlotRecycle and TestZeroEventIsInert read a handle's instant",
		"des.Link.ActiveFlows":            "TestLinkDifferential and TestLinkRatesThroughJoinAndFire compare it with the oracle link",
		"des.Link.BytesMoved":             "TestLinkDifferential and the store's TestRequestChainMatchesProcessForm compare it with the oracles",
		"des.Link.Transfers":              "TestLinkDifferential and the store's TestRequestChainMatchesProcessForm compare it with the oracles",
		"des.Resource.Capacity":           "TestResourceAccounting",
		"des.Sim.Handoffs":                "TestSizedSortEventsPinned holds the baton handoffs under a ceiling",
		"des.Sim.Pending":                 "kernel_trace.golden and TestLinkDifferential record the queue length",
		"des.WaitGroup.Count":             "kernel_trace.golden records it",
		"des.Waterfill":                   "TestWaterfillDifferential and TestLinkRatesThroughJoinAndFire hold the link's rates to it",
		"faas.DefaultConfig":              "test fixture: TestConfigValidationFaas and TestConfigRejectsBadFaultRates start from it",
		"gateway.Gateway.Session":         "TestGatewayLedgersAreTheMeters and the gateway tests reach the rig through it",
		"memcache.Cluster.BilledDuration": "TestBillingStopsAtStop and TestStandingBillStopsWithTheResource",
		"memcache.Cluster.UsedBytes":      "TestCacheExchangeSurvivesNodeLoss and TestKillNodeDropsDataButKeepsBilling",
		"memcache.Cluster.Zone":           "TestZoneOutageFires checks placement through it",
		"memcache.DefaultConfig":          "test fixture: TestCacheCost and TestStandingClusterExemptFromProvisioningQuota start from it",
		"memcache.Provisioner.ZoneDown":   "TestZoneOutageFires",
		"objectstore.DefaultConfig":       "test fixture: TestConfigValidation and chaos's testTargets start from it",
		"objectstore.Object.ETag":         "keyspace.golden (TestStoreKeyspacePinned) records every key's tag",
		"objectstore.Service.Brownout":    "TestArmFiresAllKinds, TestOverlappingBrownouts and TestZoneOutageFires",
		"objectstore.Service.StoredBytes": "keyspace.golden (TestStoreKeyspacePinned) and TestStoredVolumeIntegral",
		"vm.Instance.BootedAt":            "TestProvisionPaysBootTime",
		"vm.Instance.Zone":                "TestZoneOutageFires checks placement through it",
		"vm.Provisioner.Types":            "core's planEnvOf (auto_test.go) builds TestAutoExchangeCapturesDecision's planner environment from it",
		"vm.Provisioner.ZoneDown":         "TestZoneOutageFires",
	}
	exportedFrom := []string{"shuffle", "core"} // the stricter rule's packages
	allowedAtHome := map[string]string{
		"core.AutoExchange.RunSort":          "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.CacheExchange.RunSort":         "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.ObjectStorageExchange.RunSort": "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.VMExchange.RunSort":            "ExchangeStrategy's method: SortStage calls it through the interface",
		"core.AutoExchange.Name":             "ExchangeStrategy's method: SortStage.Name calls it through the interface",
		"core.CacheExchange.Name":            "ExchangeStrategy's method: SortStage.Name calls it through the interface",
		"core.ObjectStorageExchange.Name":    "ExchangeStrategy's method: SortStage.Name calls it through the interface",
		"core.VMExchange.Name":               "ExchangeStrategy's method: SortStage.Name calls it through the interface",
		"core.FuncStage.Name":                "Stage's method: the workflow and the executor call it through the interface",
		"core.MapStage.Name":                 "Stage's method: the workflow and the executor call it through the interface",
		"core.SortStage.Name":                "Stage's method: the workflow and the executor call it through the interface",
		"core.FuncStage.Run":                 "Stage's method: the executor calls it through the interface",
		"core.MapStage.Run":                  "Stage's method: the executor calls it through the interface",
		"core.SortStage.Run":                 "Stage's method: the executor calls it through the interface",
		"core.RunState":                      "the type of StageContext.State, which stage bodies outside core read through the field",
		"core.RunState.Set":                  "the stages record their keys with it; genomics' verify_test.go and roundtrip_test.go seed a run's state through it",
		"core.SortOutcome":                   "ExchangeStrategy.RunSort's result: a strategy outside core returns one",
		"core.StageOutcome":                  "the type of StageContext.Outcome, embedded in SortOutcome",
		"shuffle.AdaptiveChunkBytes":         "fold_meter_test and autoplan's cost_oracle_test re-derive the model through them",
		"shuffle.MapStreamRates":             "fold_meter_test and autoplan's cost_oracle_test re-derive the model through them",
		"shuffle.payloadSource.Close":        "runSource's method, exported because objectstore.ClientStream implements it too: lineReader calls it through the interface",
		"shuffle.payloadSource.Next":         "runSource's method, exported because objectstore.ClientStream implements it too: lineReader calls it through the interface",
	}

	repo := loadRepository(t)
	var declared []types.Object
	name := map[types.Object]string{}
	testSupport := filepath.Join(root, "internal", "des", "destest")
	for dir, files := range repo.dirs {
		for _, f := range files {
			for _, imp := range f.Imports {
				if strings.HasSuffix(imp.Path.Value, `/internal/des/destest"`) && dir != testSupport {
					t.Errorf("%s imports destest, which is for tests alone", repo.fset.File(f.Pos()).Name())
				}
			}
		}
		if !strings.HasPrefix(dir, filepath.Join(root, "internal")) || dir == testSupport {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				var ids []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name != "init" {
						ids = append(ids, d.Name)
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						if ts, ok := sp.(*ast.TypeSpec); ok {
							ids = append(ids, ts.Name)
						}
					}
				}
				for _, id := range ids {
					if id.Name != "_" {
						obj := repo.info.Defs[id]
						declared = append(declared, obj)
						name[obj] = objectName(obj)
					}
				}
			}
		}
	}
	if len(declared) < 700 {
		t.Fatalf("found %d functions and types under internal/, expected all of them", len(declared))
	}

	// usedFrom: the packages referencing each function and type outside
	// its own declaration (a method's receiver is part of the
	// declaration); calledFrom: the same for the interface methods among
	// them.
	usedFrom := map[types.Object]map[*types.Package]bool{}
	calledFrom := map[*types.Func]map[*types.Package]bool{}
	use := func(self types.Object, from *types.Package, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := repo.info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := recvOf(fn); recv != nil && types.IsInterface(recv.Type()) {
					noteFrom(calledFrom, fn, from)
				}
			} else if _, ok := obj.(*types.TypeName); !ok {
				return true
			}
			if obj != self {
				noteFrom(usedFrom, obj, from)
			}
			return true
		})
	}
	for dir, files := range repo.dirs {
		if dir == testSupport {
			continue // a test's use is no caller
		}
		from := repo.packageIn(dir)
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					use(repo.info.Defs[d.Name], from, d.Type)
					if d.Body != nil {
						use(repo.info.Defs[d.Name], from, d.Body)
					}
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						var self types.Object
						if ts, ok := sp.(*ast.TypeSpec); ok {
							self = repo.info.Defs[ts.Name]
						}
						use(self, from, sp)
					}
				}
			}
		}
	}
	for pkg, iface := range stdDispatch(t, repo) {
		for i := range iface.NumMethods() {
			noteFrom(calledFrom, iface.Method(i), pkg)
		}
	}
	// reached reports whether obj is referenced from some package, or,
	// with away set, from a package other than its own.
	reached := func(obj types.Object, away bool) bool {
		counts := func(from map[*types.Package]bool) bool {
			for pkg := range from {
				if !away || pkg != obj.Pkg() {
					return true
				}
			}
			return false
		}
		if counts(usedFrom[obj]) {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || recvOf(fn) == nil {
			return false
		}
		recv := recvOf(fn).Type()
		for im, from := range calledFrom {
			iface := recvOf(im).Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && counts(from) && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}

	var uncalled, atHome []string
	exported := map[types.Object]string{} // what the stricter rule covers
	for _, obj := range declared {
		switch _, allow := allowed[name[obj]]; {
		case reached(obj, false):
			if allow {
				t.Errorf("%s is on the allow-list and has a caller now: take it off", name[obj])
			}
		case !allow:
			uncalled = append(uncalled, name[obj])
		}
		if !obj.Exported() || !slices.Contains(exportedFrom, obj.Pkg().Name()) {
			continue
		}
		exported[obj] = name[obj]
		switch _, allow := allowedAtHome[name[obj]]; {
		case reached(obj, true):
			if allow {
				t.Errorf("%s is on the allow-list and has a caller outside its package now: take it off", name[obj])
			}
		case !allow && reached(obj, false):
			atHome = append(atHome, name[obj])
		}
	}
	sort.Strings(uncalled)
	for _, n := range uncalled {
		t.Errorf("%s is referenced by no non-test code: remove it, or allow it with its reason", n)
	}
	sort.Strings(atHome)
	for _, n := range atHome {
		t.Errorf("%s is reached by no non-test code outside its package: unexport or remove it, or allow it with its reason", n)
	}
	checkAllowList(t, allowed, name)
	checkAllowList(t, allowedAtHome, exported)
}

// stdDispatch lists the standard library's interfaces through which it
// calls this module's methods itself, by the package that calls them:
// fmt's Stringer, the sort and heap interfaces. An interface whose
// methods the module calls needs no entry.
func stdDispatch(t *testing.T, repo *repository) map[*types.Package]*types.Interface {
	t.Helper()
	out := map[*types.Package]*types.Interface{}
	for _, iface := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}} {
		pkg, err := repo.imp.Import(iface[0])
		if err != nil {
			t.Fatal(err)
		}
		out[pkg] = pkg.Scope().Lookup(iface[1]).Type().Underlying().(*types.Interface)
	}
	return out
}

// noteFrom records that k is referenced from package from.
func noteFrom[K comparable](m map[K]map[*types.Package]bool, k K, from *types.Package) {
	if m[k] == nil {
		m[k] = map[*types.Package]bool{}
	}
	m[k][from] = true
}

// recvOf is a method's receiver, nil for a function.
func recvOf(fn *types.Func) *types.Var { return fn.Type().(*types.Signature).Recv() }

// objectName names a type or function "pkg.Name" and a method
// "pkg.Recv.Name".
func objectName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || recvOf(fn) == nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	t := recvOf(fn).Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return obj.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + obj.Name()
}

// checkAllowList fails on an allow-list entry that names nothing the
// census covers: what it allowed is gone, so must be the entry.
func checkAllowList[K comparable](t *testing.T, allowed map[string]string, covered map[K]string) {
	t.Helper()
	names := map[string]bool{}
	for _, n := range covered {
		names[n] = true
	}
	for entry := range allowed {
		if !names[entry] {
			t.Errorf("allow-list entry %s names nothing the census covers: take it off", entry)
		}
	}
}

// root is the repository's root, seen from this package's directory.
var root = filepath.Join("..", "..")

// repository is every non-test Go file of the repository that builds
// here, parsed by directory (internal/, cmd/, examples/ and the nested
// bench/ module) and type-checked.
type repository struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
	imp  *moduleImporter
	info *types.Info
}

var (
	loadOnce sync.Once
	loaded   *repository
	loadErr  error
)

// loadRepository parses and type-checks the repository once per test
// binary.
func loadRepository(t *testing.T) *repository {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = parseRepository() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func parseRepository() (*repository, error) {
	repo := &repository{fset: token.NewFileSet(), dirs: map[string][]*ast.File{}}
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d fs.DirEntry, err error) error {
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
			return nil, err
		}
	}
	if n := len(repo.files()); n < 100 {
		return nil, errors.New("scanned too few files: expected the whole repository")
	}

	repo.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	repo.imp = &moduleImporter{
		repo: repo,
		std:  importer.ForCompiler(repo.fset, "source", nil),
		done: map[string]*types.Package{},
	}
	for dir := range repo.dirs {
		rel, err := filepath.Rel(root, dir)
		if err == nil {
			_, err = repo.imp.Import(module + "/" + filepath.ToSlash(rel))
		}
		if err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// files lists every parsed file.
func (r *repository) files() []*ast.File {
	var all []*ast.File
	for _, fs := range r.dirs {
		all = append(all, fs...)
	}
	return all
}

// packageIn is the type-checked package of a parsed directory.
func (r *repository) packageIn(dir string) *types.Package {
	rel, _ := filepath.Rel(root, dir)
	return r.imp.done[module+"/"+filepath.ToSlash(rel)]
}

// packageNamed is the package under internal/ in the directory of that
// name.
func (r *repository) packageNamed(t *testing.T, name string) *types.Package {
	t.Helper()
	pkg := r.imp.done[module+"/internal/"+name]
	if pkg == nil {
		t.Fatalf("no package internal/%s", name)
	}
	return pkg
}

// module is the root module's path; the nested bench/ module's is
// module + "/bench", so one importer serves both.
const module = "github.com/faaspipe/faaspipe"

// moduleImporter type-checks the repository's packages from the parsed
// files, each once, as they are first imported; the standard library it
// type-checks from source.
type moduleImporter struct {
	repo *repository
	std  types.Importer
	done map[string]*types.Package
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
	pkg, err := conf.Check(path, m.repo.fset, m.repo.dirs[filepath.Join(root, rel)], m.repo.info)
	if err != nil {
		return nil, err
	}
	m.done[path] = pkg
	return pkg, nil
}
