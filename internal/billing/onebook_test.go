package billing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPricesAreMultipliedHereOnly scans every non-test file of
// internal/ and fails when a unit price of the PriceBook is selected
// outside this package: a USD formula is written once, here, and every
// other layer builds usage (a faas.Meter, an objectstore.Metrics,
// hours) and calls FunctionsCost, StorageCost, VMCost, CacheCost or
// HourlyCost. Profile literals (calib, Default) name the fields as
// keys, not selectors, and pass.
func TestPricesAreMultipliedHereOnly(t *testing.T) {
	prices := map[string]bool{
		"FunctionGBSecond": true, "FunctionInvocation": true,
		"StorageClassA": true, "StorageClassB": true, "StorageGBMonth": true,
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("..", "billing") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && prices[sel.Sel.Name] {
				t.Errorf("%s: selects PriceBook.%s outside internal/billing; build the usage and let the price book price it",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files under internal/, expected the whole tree", files)
	}
}
