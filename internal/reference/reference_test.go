package reference

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/storage"
)

type fixture struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	emp := &catalog.Table{Name: "Emp", Cols: []catalog.Column{
		{Name: "eid", Kind: datum.KindInt, NotNull: true},
		{Name: "name", Kind: datum.KindString},
		{Name: "did", Kind: datum.KindInt},
		{Name: "sal", Kind: datum.KindFloat},
	}}
	dept := &catalog.Table{Name: "Dept", Cols: []catalog.Column{
		{Name: "did", Kind: datum.KindInt, NotNull: true},
		{Name: "dname", Kind: datum.KindString},
	}}
	i, s, f, null := datum.NewInt, datum.NewString, datum.NewFloat, datum.Null
	for tab, rows := range map[*catalog.Table][]datum.Row{
		emp: {
			{i(1), s("alice"), i(10), f(100)},
			{i(2), s("bob"), i(10), f(200)},
			{i(3), s("carol"), i(20), f(300)},
			{i(4), s("dave"), null, f(50)},
			{i(5), s("erin"), i(30), null},
		},
		dept: {{i(10), s("eng")}, {i(20), s("sales")}, {i(40), s("empty")}},
	} {
		if err := cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		st, err := store.CreateTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return &fixture{cat: cat, store: store}
}

// run evaluates q and returns its rows rendered, in result order.
func (f *fixture) run(t *testing.T, q string) []string {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	query, err := logical.NewBuilder(f.cat).Build(sel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := New(f.store, query.Meta).RunQuery(query)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	out := make([]string, len(res.Rows))
	for k, r := range res.Rows {
		out[k] = r.String()
	}
	return out
}

// expectRows compares rows as a bag.
func expectRows(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNaiveSelectProject(t *testing.T) {
	expectRows(t, newFixture(t).run(t, "SELECT name FROM Emp WHERE sal > 100"), "('bob')", "('carol')")
}

func TestNaiveNullComparisons(t *testing.T) {
	f := newFixture(t)
	// erin's sal is NULL: excluded from both branches.
	expectRows(t, f.run(t, "SELECT eid FROM Emp WHERE sal > 0 OR sal <= 0"), "(1)", "(2)", "(3)", "(4)")
	expectRows(t, f.run(t, "SELECT name FROM Emp WHERE sal IS NULL"), "('erin')")
}

func TestNaiveJoins(t *testing.T) {
	f := newFixture(t)
	expectRows(t, f.run(t, "SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did"),
		"('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')")
	expectRows(t, f.run(t, "SELECT e.name, d.dname FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did"),
		"('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')", "('dave', NULL)", "('erin', NULL)")
	expectRows(t, f.run(t, "SELECT e.name, d.dname FROM Emp e FULL OUTER JOIN Dept d ON e.did = d.did"),
		"('alice', 'eng')", "('bob', 'eng')", "('carol', 'sales')", "('dave', NULL)", "('erin', NULL)", "(NULL, 'empty')")
}

func TestNaiveGroupByAndHaving(t *testing.T) {
	got := newFixture(t).run(t, "SELECT did, COUNT(*), SUM(sal) FROM Emp GROUP BY did HAVING COUNT(*) >= 1 ORDER BY did")
	// NULL did forms its own group and sorts first.
	if want := "(NULL, 1, 50);(10, 2, 300);(20, 1, 300);(30, 1, NULL)"; strings.Join(got, ";") != want {
		t.Errorf("got %v, want %s", got, want)
	}
}

func TestNaiveScalarAggEmptyInput(t *testing.T) {
	expectRows(t, newFixture(t).run(t, "SELECT COUNT(*), SUM(sal), MIN(sal), AVG(sal) FROM Emp WHERE sal > 100000"),
		"(0, NULL, NULL, NULL)")
}

func TestNaiveDistinctAndCountDistinct(t *testing.T) {
	f := newFixture(t)
	expectRows(t, f.run(t, "SELECT DISTINCT did FROM Emp"), "(NULL)", "(10)", "(20)", "(30)")
	expectRows(t, f.run(t, "SELECT COUNT(DISTINCT did) FROM Emp"), "(3)")
}

func TestNaiveOrderByLimit(t *testing.T) {
	// SQL applies ORDER BY before LIMIT: the top two salaries.
	got := newFixture(t).run(t, "SELECT name FROM Emp ORDER BY sal DESC LIMIT 2")
	if strings.Join(got, ";") != "('carol');('bob')" {
		t.Fatalf("ORDER BY must run before LIMIT: %v", got)
	}
}

func TestNaiveCorrelatedIn(t *testing.T) {
	// The paper's §4.2.2 pattern.
	expectRows(t, newFixture(t).run(t, `SELECT e.name FROM Emp e WHERE e.did IN
		(SELECT d.did FROM Dept d WHERE d.dname = 'eng' AND e.sal > 50)`), "('alice')", "('bob')")
}

func TestNaiveExistsAndNotExists(t *testing.T) {
	f := newFixture(t)
	expectRows(t, f.run(t, `SELECT d.dname FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did)`),
		"('eng')", "('sales')")
	expectRows(t, f.run(t, `SELECT d.dname FROM Dept d WHERE NOT EXISTS (SELECT 1 FROM Emp e WHERE e.did = d.did)`),
		"('empty')")
}

func TestNaiveScalarSubquery(t *testing.T) {
	// avg = (100+200+300+50)/4 = 162.5
	expectRows(t, newFixture(t).run(t, `SELECT e.name FROM Emp e WHERE e.sal > (SELECT AVG(e2.sal) FROM Emp e2)`),
		"('bob')", "('carol')")
}

func TestNaiveInSubqueryNullSemantics(t *testing.T) {
	// NOT IN over a set holding NULL is never TRUE.
	expectRows(t, newFixture(t).run(t, `SELECT d.dname FROM Dept d WHERE d.did NOT IN (SELECT e.did FROM Emp e)`))
}

// TestFloatSumSemantics pins the float sum to the engine's: exact, rounded
// once half-even, -0 only from -0s alone, +Inf past MaxFloat64, and the
// infinities and NaNs combined as IEEE addition would.
func TestFloatSumSemantics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{0.1, 0.2, -0.3}, 0x1p-55}, // exact: a float sum left to right gives 0x1p-54
		{[]float64{1e308, 1e308, -1e308}, 1e308},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{[]float64{1, 0x1p-53}, 1},                     // a tie rounds to even
		{[]float64{1, 0x1p-53, 0x1p-105}, 1 + 0x1p-52}, // past the tie rounds up
		{[]float64{negZero, negZero}, negZero},
		{[]float64{negZero, 0}, 0},
		{[]float64{1, -1}, 0},
		{[]float64{math.Inf(1), 1}, math.Inf(1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{5e-324, 5e-324}, 1e-323},
	} {
		var s floatSum
		for _, x := range c.in {
			s.add(x)
		}
		if got := s.value(); math.Float64bits(got) != math.Float64bits(c.want) && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("sum %v = %s, want %s", c.in, strconv.FormatFloat(got, 'x', -1, 64), strconv.FormatFloat(c.want, 'x', -1, 64))
		}
	}
}

// TestOneExecutor keeps the evaluator out of the engine: outside tests, only
// the root package (its Reference mode) and internal/experiments import this
// package, and internal/exec defines no evaluator of logical trees of its own.
func TestOneExecutor(t *testing.T) {
	const self = "repro/internal/reference"
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self && dir != "../.." && dir != "../../internal/experiments" {
				t.Errorf("%s imports %s", path, self)
			}
		}
		if dir == "../../internal/exec" {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && (fn.Name.Name == "EvalLogical" || fn.Name.Name == "RunQuery") {
					t.Errorf("%s defines %s: internal/exec has one way to execute, physical plans", path, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
