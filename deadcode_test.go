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
	// §7.1: the plan segments the first phase of two-phase parallel
	// optimization cuts, which Makespan schedules.
	"internal/parallel.Segments": "paper model: two-phase schedule segments",
	// The plan cache renders a hit's plan text from a template and binds
	// parameters at run time; this copy-and-substitute is the oracle both
	// are checked against.
	"internal/physical.BindParams": "test oracle: parameter substitution",
	// The logical tree's text: rewrite tests compare it before and after a
	// rule (idempotence, one rule's effect); rules themselves report change.
	"internal/logical.Format": "test oracle: logical tree text",
	// Fault injection is a test harness: tests build injectors and hand
	// them to the engine, and the crash matrix counts an operation's
	// checks to enumerate its kill points.
	"internal/faultfs.New":               "test harness: fault injector",
	"internal/faultfs.(*Injector).Count": "test harness: fault check counts",
	// The experiment harness's own test runs every table of this list.
	"internal/experiments.All": "test harness: the list of experiment tables",
}

// harnessDir holds the experiment tables of the reproduction, and
// harnessCaller the benchmark wrappers through which `make experiments` runs
// them: an export of the harness is used where harnessCaller names it.
const (
	harnessDir    = "internal/experiments"
	harnessCaller = "bench_test.go"
)

// TestNoTestOnlyExports keeps code that only tests reach out of the engine.
// It parses every non-test Go file in the repository, bench/ included, and
// fails on an exported function or method declared under internal/ that no
// non-test file uses. Such a function serves no workload, example or
// command; delete it (and move its test onto the live API), or, when a test
// needs it as an oracle or a paper baseline, add it to testOnlyAllowed with
// the reason. Methods named after a standard interface method are exempt.
//
// A function is used where its package names it bare or another package
// names it through that package's import. A method is used where a call
// selects it by name from a value, not from an imported package name: a
// type that shares the method's name (datum.Row beside (*Table).Row) and a
// field read of the same name do not count. A dead method that shares its
// name with a live method anywhere in the repository still escapes.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, use, pos string
	}
	var decls []decl
	uses, harnessUses := map[string]int{}, map[string]int{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") && path != harnessCaller {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		// imports maps the name a file gives each import to its directory
		// in this module.
		imports := map[string]string{}
		for _, im := range f.Imports {
			ipath := strings.Trim(im.Path.Value, `"`)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(ipath, "repro/")
		}
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			key, use := dir+"."+fn.Name.Name, dir+"."+fn.Name.Name
			if fn.Recv != nil {
				if standardMethods[fn.Name.Name] {
					continue
				}
				key, use = dir+"."+recvName(fn.Recv.List[0].Type)+"."+fn.Name.Name, "."+fn.Name.Name
			}
			decls = append(decls, decl{key, use, fset.Position(fn.Pos()).String()})
		}
		uses := uses
		if path == harnessCaller {
			uses = harnessUses
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); !ok || imports[x.Name] == "" {
						uses["."+sel.Sel.Name]++
					}
				}
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[imports[x.Name]+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				if !names[n] && !selected[n] {
					uses[dir+"."+n.Name]++
				}
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
		n := uses[d.use]
		if strings.HasPrefix(d.key, harnessDir+".") {
			n += harnessUses[d.use]
		}
		if _, ok := testOnlyAllowed[d.key]; ok || n > 0 {
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
