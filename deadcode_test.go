package queryopt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// standardMethods are method names a type defines to satisfy an interface of
// the standard library (fmt.Stringer, error, sort.Interface, io.*, ...); such
// a method is called through the interface, never by name.
var standardMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "Sync": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// testOnlyAllowed lists exported functions that no program path calls but a
// test keeps on purpose: a model of the paper or an oracle the engine's
// answer is checked against. Keys are "directory.Func" or
// "directory.(*Type).Method".
var testOnlyAllowed = map[string]string{
	// §4.2.2: the exhaustive order of expensive predicates, the oracle of
	// RankOrder, and the pull-up placement the udp tests compare the
	// engine's placement with.
	"internal/udp.OptimalSequence":             "paper model: optimal expensive-predicate order",
	"internal/udp.(*Pipeline).PullupPlacement": "paper model: predicate pull-up baseline",
	// §7.1: the makespan of a list schedule, the second phase of
	// two-phase parallel optimization, which the parallel tests model.
	"internal/parallel.Makespan": "paper model: two-phase schedule makespan",
	// §4.2.1 and S8: Starburst's Query Graph Model, one box per query
	// block; the qgm tests check the boxes it builds from queries.
	"internal/qgm.BuildQGM": "paper model: Starburst QGM boxes",
	// §5.1.1 and S4: incremental histogram maintenance; the engine
	// re-ANALYZEs instead, the histogram tests keep the model.
	"internal/histogram.NewIncremental":        "paper model: incremental histogram maintenance",
	"internal/histogram.(*Incremental).Insert": "paper model: incremental histogram maintenance",
}

// harnessDir holds the experiment tables of the reproduction. `make
// experiments` runs them through the benchmark wrappers in bench_test.go, so
// every export there is reached from tests by design.
const harnessDir = "internal/experiments"

// TestNoTestOnlyExports keeps code that only tests reach out of the engine.
// It parses every non-test Go file in the repository, bench/ included, and
// fails on an exported function or method declared under internal/ whose
// name appears in no non-test file other than in its own declaration. Such
// a function serves no workload, example or command; delete it (and move
// its test onto the live API), or, when a test needs it as an oracle or a
// paper baseline, add it to testOnlyAllowed with the reason. Methods named
// after a standard interface method, and the experiment harness, are exempt.
//
// Matching is by name: a dead method that shares its name with a live
// function or method anywhere in the repository escapes this check.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, name, pos string
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || dir == harnessDir || !fn.Name.IsExported() {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				if standardMethods[fn.Name.Name] {
					continue
				}
				key = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := testOnlyAllowed[d.key]; ok || uses[d.name] > 0 {
			continue
		}
		dead = append(dead, d.pos+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached only by tests (or by nothing)", d)
	}
	for key := range testOnlyAllowed {
		if !declared[key] {
			t.Errorf("testOnlyAllowed lists %s, which is not declared", key)
		}
	}
}

// recvName renders a method's receiver type as "(*T)" or "T", without type
// parameters.
func recvName(x ast.Expr) string {
	switch t := x.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(t.X) + ")"
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
