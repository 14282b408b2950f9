package refeval

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyDifftestImportsOracle keeps the oracle independent of the code
// it checks: if engine code called into refeval, a bug shared by both
// would agree with itself. Only the differential harness may import it
// from non-test code.
func TestOnlyDifftestImportsOracle(t *testing.T) {
	const oracle = "repro/internal/refeval"
	allowed := filepath.Join("..", "difftest")
	fset := token.NewFileSet()
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == oracle && filepath.Dir(path) != allowed {
					t.Errorf("%s imports %s; only internal/difftest may", path, oracle)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
