package logical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sql"
)

// paperCatalog builds the Emp/Dept schema used throughout the paper's
// examples.
func paperCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	emp := &catalog.Table{
		Name: "Emp",
		Cols: []catalog.Column{
			{Name: "eid", Kind: datum.KindInt, NotNull: true},
			{Name: "name", Kind: datum.KindString},
			{Name: "did", Kind: datum.KindInt},
			{Name: "sal", Kind: datum.KindFloat},
			{Name: "age", Kind: datum.KindInt},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "emp_pk", Cols: []int{0}, Unique: true, Clustered: true},
			{Name: "emp_did", Cols: []int{2}},
		},
	}
	dept := &catalog.Table{
		Name: "Dept",
		Cols: []catalog.Column{
			{Name: "did", Kind: datum.KindInt, NotNull: true},
			{Name: "dname", Kind: datum.KindString},
			{Name: "loc", Kind: datum.KindString},
			{Name: "budget", Kind: datum.KindFloat},
			{Name: "mgr", Kind: datum.KindInt},
		},
		PrimaryKey: []int{0},
	}
	if err := c.AddTable(emp); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(dept); err != nil {
		t.Fatal(err)
	}
	return c
}

func build(t *testing.T, c *catalog.Catalog, q string) *Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	query, err := NewBuilder(c).Build(sel)
	if err != nil {
		t.Fatalf("build %q: %v", q, err)
	}
	return query
}

func buildErr(t *testing.T, c *catalog.Catalog, q string) error {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	_, err = NewBuilder(c).Build(sel)
	if err == nil {
		t.Fatalf("build %q: expected error", q)
	}
	return err
}

func TestColSetBasics(t *testing.T) {
	s := MakeColSet(1, 3, 70)
	if !s.Contains(1) || !s.Contains(70) || s.Contains(2) {
		t.Error("membership")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 2 {
		t.Error("Remove")
	}
	u := MakeColSet(1, 2).Union(MakeColSet(2, 65))
	if u.Len() != 3 {
		t.Error("Union")
	}
	i := MakeColSet(1, 2, 3).Intersect(MakeColSet(2, 3, 4))
	if !sameCols(i, MakeColSet(2, 3)) {
		t.Error("Intersect")
	}
	d := MakeColSet(1, 2, 3).Difference(MakeColSet(2))
	if !sameCols(d, MakeColSet(1, 3)) {
		t.Error("Difference")
	}
	if !MakeColSet(1).SubsetOf(MakeColSet(1, 2)) || MakeColSet(3).SubsetOf(MakeColSet(1, 2)) {
		t.Error("SubsetOf")
	}
	if !MakeColSet(1, 2).Intersects(MakeColSet(2, 9)) || MakeColSet(1).Intersects(MakeColSet(2)) {
		t.Error("Intersects")
	}
	if MakeColSet().Len() != 0 || !MakeColSet().Empty() {
		t.Error("empty set")
	}
	if MakeColSet(5, 1).Key() != "1,5" {
		t.Errorf("Key = %q", MakeColSet(5, 1).Key())
	}
	if MakeColSet(2, 1).String() != "(1,2)" {
		t.Errorf("String = %q", MakeColSet(2, 1).String())
	}
	got := MakeColSet(9, 2, 5).Ordered()
	if len(got) != 3 || got[0] != 2 || got[2] != 9 {
		t.Errorf("Ordered = %v", got)
	}
}

func TestColSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(0) should panic")
		}
	}()
	var s ColSet
	s.Add(0)
}

func TestBuildSimpleScan(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT name, sal FROM Emp WHERE sal > 100")
	if len(q.ResultCols) != 2 || q.ColNames[0] != "name" {
		t.Fatalf("result cols %v names %v", q.ResultCols, q.ColNames)
	}
	// Shape: Project(Select(Scan)).
	p, ok := q.Root.(*Project)
	if !ok {
		t.Fatalf("root %T", q.Root)
	}
	s, ok := p.Input.(*Select)
	if !ok {
		t.Fatalf("project input %T", p.Input)
	}
	if _, ok := s.Input.(*Scan); !ok {
		t.Fatalf("select input %T", s.Input)
	}
}

func TestBuildJoinAndQualifiedNames(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT e.name, d.dname FROM Emp e, Dept d WHERE e.did = d.did")
	if q.Meta.NumColumns() != 10 {
		t.Errorf("expected 10 base columns, got %d", q.Meta.NumColumns())
	}
	if got := q.Meta.QualifiedName(q.ResultCols[0]); got != "e.name" {
		t.Errorf("qualified name = %q", got)
	}
}

func TestBuildSelfJoinFreshIDs(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT e1.name FROM Emp e1, Emp e2 WHERE e1.did = e2.did")
	// Two occurrences of Emp must have disjoint column IDs.
	var scans []*Scan
	VisitRel(q.Root, func(e RelExpr) {
		if s, ok := e.(*Scan); ok {
			scans = append(scans, s)
		}
	})
	if len(scans) != 2 {
		t.Fatalf("scans = %d", len(scans))
	}
	if scans[0].OutputCols().Intersects(scans[1].OutputCols()) {
		t.Error("self-join occurrences share column IDs")
	}
}

func TestBuildAmbiguousAndUnknown(t *testing.T) {
	c := paperCatalog(t)
	if err := buildErr(t, c, "SELECT did FROM Emp, Dept"); !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguous error, got %v", err)
	}
	buildErr(t, c, "SELECT nosuch FROM Emp")
	buildErr(t, c, "SELECT name FROM NoTable")
	buildErr(t, c, "SELECT x.name FROM Emp e")
}

func TestBuildGroupBy(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT did, COUNT(*), AVG(sal) FROM Emp GROUP BY did HAVING COUNT(*) > 2")
	// Shape: Project(Select(GroupBy(...))).
	p := q.Root.(*Project)
	s, ok := p.Input.(*Select)
	if !ok {
		t.Fatalf("expected HAVING Select, got %T", p.Input)
	}
	g, ok := s.Input.(*GroupBy)
	if !ok {
		t.Fatalf("expected GroupBy, got %T", s.Input)
	}
	if len(g.GroupCols) != 1 || len(g.Aggs) != 2 {
		t.Fatalf("group cols %d aggs %d", len(g.GroupCols), len(g.Aggs))
	}
	// COUNT(*) in select and HAVING should dedup to one agg item.
	for _, a := range g.Aggs {
		if a.Fn == AggCount && a.Arg != nil {
			t.Error("COUNT(*) should have nil arg")
		}
	}
}

func TestBuildGroupByValidation(t *testing.T) {
	c := paperCatalog(t)
	buildErr(t, c, "SELECT name FROM Emp GROUP BY did")
	buildErr(t, c, "SELECT did FROM Emp HAVING did > 1") // HAVING without grouping
	buildErr(t, c, "SELECT COUNT(*) FROM Emp WHERE COUNT(*) > 1")
	buildErr(t, c, "SELECT * FROM Emp GROUP BY did")
	buildErr(t, c, "SELECT MAX(*) FROM Emp")
	buildErr(t, c, "SELECT SUM(sal, age) FROM Emp")
}

func TestBuildScalarGroupBy(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT COUNT(*), MIN(sal) FROM Emp")
	p := q.Root.(*Project)
	g, ok := p.Input.(*GroupBy)
	if !ok {
		t.Fatalf("expected scalar GroupBy, got %T", p.Input)
	}
	if len(g.GroupCols) != 0 || len(g.Aggs) != 2 {
		t.Error("scalar aggregation shape wrong")
	}
}

func TestBuildDistinct(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT DISTINCT did FROM Emp")
	g, ok := q.Root.(*GroupBy)
	if !ok || len(g.Aggs) != 0 {
		t.Fatalf("DISTINCT should build GroupBy with no aggs, got %T", q.Root)
	}
}

func TestBuildOrderByAliasAndHidden(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT name AS n FROM Emp ORDER BY n")
	if len(q.OrderBy) != 1 || q.OrderBy[0].Col != q.ResultCols[0] {
		t.Error("ORDER BY alias should resolve to result column")
	}
	q = build(t, c, "SELECT name FROM Emp ORDER BY sal DESC")
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Fatal("ORDER BY missing")
	}
	// sal must survive projection even though not selected.
	if !q.Root.OutputCols().Contains(q.OrderBy[0].Col) {
		t.Error("hidden order column not projected")
	}
}

func TestBuildLimit(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT name FROM Emp LIMIT 5")
	l, ok := q.Root.(*Limit)
	if !ok || l.N != 5 {
		t.Fatalf("limit missing: %T", q.Root)
	}
}

func TestBuildCorrelatedSubquery(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, `SELECT name FROM Emp WHERE did IN
		(SELECT did FROM Dept WHERE loc = 'Denver' AND Emp.eid = Dept.mgr)`)
	var sub *Subquery
	VisitRel(q.Root, func(e RelExpr) {
		if s, ok := e.(*Select); ok {
			for _, f := range s.Filters {
				VisitScalar(f, func(sc Scalar) {
					if sq, ok := sc.(*Subquery); ok {
						sub = sq
					}
				})
			}
		}
	})
	if sub == nil {
		t.Fatal("no subquery found")
	}
	if sub.Mode != SubIn {
		t.Errorf("mode = %v", sub.Mode)
	}
	if sub.OuterCols.Len() != 1 {
		t.Errorf("outer cols = %v, want exactly the Emp.eid correlation", sub.OuterCols)
	}
}

func TestBuildExistsAndScalarSub(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, `SELECT dname FROM Dept WHERE EXISTS (SELECT 1 FROM Emp WHERE Emp.did = Dept.did)`)
	found := false
	VisitRel(q.Root, func(e RelExpr) {
		for _, s := range Scalars(e) {
			VisitScalar(s, func(sc Scalar) {
				if sq, ok := sc.(*Subquery); ok && sq.Mode == SubExists {
					found = true
				}
			})
		}
	})
	if !found {
		t.Error("EXISTS subquery not built")
	}
	q = build(t, c, `SELECT dname FROM Dept WHERE budget > (SELECT AVG(sal) FROM Emp WHERE Emp.did = Dept.did)`)
	found = false
	VisitRel(q.Root, func(e RelExpr) {
		for _, s := range Scalars(e) {
			VisitScalar(s, func(sc Scalar) {
				if sq, ok := sc.(*Subquery); ok && sq.Mode == SubScalar {
					found = true
				}
			})
		}
	})
	if !found {
		t.Error("scalar subquery not built")
	}
}

func TestBuildViewExpansion(t *testing.T) {
	c := paperCatalog(t)
	if err := c.AddView(&catalog.View{Name: "denver_emps",
		SQL: "SELECT e.eid, e.name, e.sal FROM Emp e, Dept d WHERE e.did = d.did AND d.loc = 'Denver'"}); err != nil {
		t.Fatal(err)
	}
	q := build(t, c, "SELECT v.name FROM denver_emps v WHERE v.sal > 50")
	scans := 0
	VisitRel(q.Root, func(e RelExpr) {
		if _, ok := e.(*Scan); ok {
			scans++
		}
	})
	if scans != 2 {
		t.Errorf("view should expand to 2 scans, got %d", scans)
	}
}

func TestBuildRecursiveViewFails(t *testing.T) {
	c := paperCatalog(t)
	if err := c.AddView(&catalog.View{Name: "v1", SQL: "SELECT * FROM v1"}); err != nil {
		t.Fatal(err)
	}
	buildErr(t, c, "SELECT * FROM v1")
}

func TestBuildOuterJoinNormalization(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT e.name FROM Emp e RIGHT OUTER JOIN Dept d ON e.did = d.did")
	var join *Join
	VisitRel(q.Root, func(e RelExpr) {
		if j, ok := e.(*Join); ok {
			join = j
		}
	})
	if join == nil || join.Kind != LeftOuterJoin {
		t.Fatalf("right join should normalize to left, got %v", join)
	}
	// Dept becomes the preserved (left) side.
	if s, ok := join.Left.(*Scan); !ok || !strings.EqualFold(s.Table.Name, "Dept") {
		t.Error("RIGHT JOIN should swap sides")
	}
}

func TestEval3VL(t *testing.T) {
	nullC := &Const{Val: datum.Null}
	tr := &Const{Val: datum.NewBool(true)}
	fa := &Const{Val: datum.NewBool(false)}
	cases := []struct {
		e    Scalar
		want datum.D
	}{
		{&And{L: tr, R: nullC}, datum.Null},
		{&And{L: fa, R: nullC}, datum.NewBool(false)},
		{&And{L: nullC, R: fa}, datum.NewBool(false)},
		{&Or{L: tr, R: nullC}, datum.NewBool(true)},
		{&Or{L: nullC, R: tr}, datum.NewBool(true)},
		{&Or{L: fa, R: nullC}, datum.Null},
		{&Not{E: nullC}, datum.Null},
		{&Not{E: tr}, datum.NewBool(false)},
		{&Cmp{Op: CmpEq, L: nullC, R: nullC}, datum.Null},
		{&Cmp{Op: CmpEq, L: &Const{Val: datum.NewInt(1)}, R: &Const{Val: datum.NewFloat(1)}}, datum.NewBool(true)},
		{&IsNull{E: nullC}, datum.NewBool(true)},
		{&IsNull{E: tr, Negated: true}, datum.NewBool(true)},
		{&InList{E: &Const{Val: datum.NewInt(2)}, List: []Scalar{&Const{Val: datum.NewInt(1)}, nullC}}, datum.Null},
		{&InList{E: &Const{Val: datum.NewInt(1)}, List: []Scalar{&Const{Val: datum.NewInt(1)}, nullC}}, datum.NewBool(true)},
		{&InList{E: &Const{Val: datum.NewInt(3)}, List: []Scalar{&Const{Val: datum.NewInt(1)}}, Negated: true}, datum.NewBool(true)},
		{&Arith{Op: ArithAdd, L: &Const{Val: datum.NewInt(2)}, R: &Const{Val: datum.NewInt(3)}}, datum.NewInt(5)},
		{&Arith{Op: ArithAdd, L: nullC, R: &Const{Val: datum.NewInt(3)}}, datum.Null},
		{&Arith{Op: ArithDiv, L: &Const{Val: datum.NewFloat(7)}, R: &Const{Val: datum.NewFloat(2)}}, datum.NewFloat(3.5)},
		{&Arith{Op: ArithAdd, L: &Const{Val: datum.NewString("a")}, R: &Const{Val: datum.NewString("b")}}, datum.NewString("ab")},
	}
	for i, tc := range cases {
		got, err := Eval(tc.e, &EvalContext{})
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got.IsNull() != tc.want.IsNull() || (!got.IsNull() && datum.Compare(got, tc.want) != 0) {
			t.Errorf("case %d (%s): got %s, want %s", i, tc.e, got, tc.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(&Arith{Op: ArithDiv, L: &Const{Val: datum.NewInt(1)}, R: &Const{Val: datum.NewInt(0)}}, nil); err == nil {
		t.Error("div by zero should error")
	}
	if _, err := Eval(&Col{ID: 1}, &EvalContext{}); err == nil {
		t.Error("unbound column should error")
	}
	if _, err := Eval(&Not{E: &Const{Val: datum.NewInt(1)}}, nil); err == nil {
		t.Error("NOT on int should error")
	}
	if _, err := Eval(&Subquery{}, &EvalContext{}); err == nil {
		t.Error("subquery without evaluator should error")
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_o", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abcdef", "a%c%f", true},
		{"abcdef", "a%x%f", false},
	}
	for _, c := range cases {
		got, err := evalCmp(CmpLike, datum.NewString(c.s), datum.NewString(c.p))
		if err != nil {
			t.Fatal(err)
		}
		if got.Bool() != c.want {
			t.Errorf("LIKE(%q, %q) = %v, want %v", c.s, c.p, got.Bool(), c.want)
		}
	}
	if LikePrefix("abc%def") != "abc" || LikePrefix("plain") != "plain" || LikePrefix("_x") != "" {
		t.Error("LikePrefix wrong")
	}
}

func TestNormalizePushdown(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did AND e.sal > 10 AND d.loc = 'LA'")
	NormalizeQuery(q, DefaultNormalize())
	// After pushdown the join should carry the equi-join predicate and each
	// scan should sit under its local filter.
	var join *Join
	VisitRel(q.Root, func(e RelExpr) {
		if j, ok := e.(*Join); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	if len(join.On) != 1 {
		t.Errorf("join On = %d preds, want 1", len(join.On))
	}
	countSelectsOverScans := 0
	VisitRel(q.Root, func(e RelExpr) {
		if s, ok := e.(*Select); ok {
			if _, ok := s.Input.(*Scan); ok {
				countSelectsOverScans++
			}
		}
	})
	if countSelectsOverScans != 2 {
		t.Errorf("local filters over scans = %d, want 2", countSelectsOverScans)
	}
}

func TestNormalizeViewMerge(t *testing.T) {
	c := paperCatalog(t)
	if err := c.AddView(&catalog.View{Name: "v", SQL: "SELECT eid, did FROM Emp WHERE sal > 10"}); err != nil {
		t.Fatal(err)
	}
	q := build(t, c, "SELECT v.eid FROM v, Dept d WHERE v.did = d.did")
	NormalizeQuery(q, DefaultNormalize())
	root := q.Root
	if p, ok := root.(*Project); ok {
		root = p.Input
	}
	leaves, preds, ok := ExtractJoinBlock(root)
	if !ok {
		t.Fatal("extract failed")
	}
	// The view body must have merged into the parent block: two scan
	// leaves, with both the join predicate and the view's filter extracted.
	if len(leaves) != 2 {
		t.Fatalf("leaves = %d, want 2 (view merged)", len(leaves))
	}
	if len(preds) != 2 {
		t.Fatalf("preds = %d, want 2 (join pred + view filter)", len(preds))
	}
}

func TestNormalizeOuterJoinSimplification(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, `SELECT e.name FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did WHERE d.budget > 100`)
	NormalizeQuery(q, DefaultNormalize())
	var join *Join
	VisitRel(q.Root, func(e RelExpr) {
		if j, ok := e.(*Join); ok {
			join = j
		}
	})
	if join == nil || join.Kind != InnerJoin {
		t.Fatalf("null-rejecting WHERE should turn LOJ into inner join, got %v", join.Kind)
	}
	// IS NULL is not null-rejecting: LOJ must be preserved.
	q = build(t, c, `SELECT e.name FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did WHERE d.budget IS NULL`)
	NormalizeQuery(q, DefaultNormalize())
	join = nil
	VisitRel(q.Root, func(e RelExpr) {
		if j, ok := e.(*Join); ok {
			join = j
		}
	})
	if join == nil || join.Kind != LeftOuterJoin {
		t.Fatal("IS NULL should not simplify the outer join")
	}
}

func TestNormalizeConstantFolding(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT name FROM Emp WHERE 1 + 1 = 2")
	NormalizeQuery(q, DefaultNormalize())
	// Filter folds to TRUE and the Select disappears.
	VisitRel(q.Root, func(e RelExpr) {
		if _, ok := e.(*Select); ok {
			t.Error("constant-true filter should be removed")
		}
	})
}

func TestPruneColumns(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did")
	NormalizeQuery(q, DefaultNormalize())
	PruneColumns(q)
	VisitRel(q.Root, func(e RelExpr) {
		if s, ok := e.(*Scan); ok {
			if strings.EqualFold(s.Table.Name, "Emp") && len(s.Cols) != 2 {
				t.Errorf("Emp scan cols = %d, want 2 (name, did)", len(s.Cols))
			}
			if strings.EqualFold(s.Table.Name, "Dept") && len(s.Cols) != 1 {
				t.Errorf("Dept scan cols = %d, want 1 (did)", len(s.Cols))
			}
		}
	})
}

func TestQueryGraphPaperExample(t *testing.T) {
	// Fig. 3: Emp joins Dept, self-join on Emp (E2).
	c := paperCatalog(t)
	q := build(t, c, `SELECT e.name FROM Emp e, Dept d, Emp e2
		WHERE e.did = d.did AND d.mgr = e2.eid AND e.sal > 10`)
	NormalizeQuery(q, NormalizeOptions{FoldConstants: true}) // keep filters unpushed
	leaves, preds, ok := ExtractJoinBlock(q.Root.(*Project).Input)
	if !ok || len(leaves) != 3 {
		t.Fatalf("leaves = %d ok=%v", len(leaves), ok)
	}
	g := BuildQueryGraph(leaves, preds)
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %d, want 2\n%s", len(g.Edges), g)
	}
	localCount := 0
	for _, l := range g.Local {
		localCount += len(l)
	}
	if localCount != 1 {
		t.Errorf("local preds = %d, want 1", localCount)
	}
	// e–d and d–e2: connected through d, with no edge between e and e2.
	for i, want := range [][2]int{{0, 1}, {1, 2}} {
		if e := g.Edges[i]; [2]int{min(e.A, e.B), max(e.A, e.B)} != want || len(e.Preds) != 1 {
			t.Errorf("edge %d joins %d and %d with %d predicates, want %v with 1", i, e.A, e.B, len(e.Preds), want)
		}
	}
}

func TestQueryGraphStar(t *testing.T) {
	c := catalog.New()
	mk := func(name string) {
		tb := &catalog.Table{Name: name, Cols: []catalog.Column{
			{Name: "k", Kind: datum.KindInt},
			{Name: "d1", Kind: datum.KindInt},
			{Name: "d2", Kind: datum.KindInt},
			{Name: "d3", Kind: datum.KindInt},
		}}
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"fact", "dim1", "dim2", "dim3"} {
		mk(n)
	}
	q := build(t, c, `SELECT * FROM fact f, dim1 a, dim2 b, dim3 cc
		WHERE f.d1 = a.k AND f.d2 = b.k AND f.d3 = cc.k`)
	leaves, preds, _ := ExtractJoinBlock(q.Root.(*Project).Input)
	g := BuildQueryGraph(leaves, preds)
	// A star: the fact table (node 0) joins each dimension, and nothing else.
	if len(g.Edges) != 3 {
		t.Fatalf("star has %d edges, want 3: %v", len(g.Edges), g.Edges)
	}
	for _, e := range g.Edges {
		if e.A != 0 && e.B != 0 {
			t.Errorf("edge %d-%d misses the hub", e.A, e.B)
		}
	}
}

func TestScalarUtilities(t *testing.T) {
	e := &And{
		L: &Cmp{Op: CmpEq, L: &Col{ID: 1}, R: &Col{ID: 2}},
		R: &Cmp{Op: CmpGt, L: &Col{ID: 3}, R: &Const{Val: datum.NewInt(5)}},
	}
	if !sameCols(ScalarCols(e), MakeColSet(1, 2, 3)) {
		t.Error("ScalarCols")
	}
	conj := SplitConjunction(e)
	if len(conj) != 2 {
		t.Error("SplitConjunction")
	}
	m := map[ColumnID]ColumnID{1: 10, 3: 30}
	r := RemapScalar(e, m)
	if !sameCols(ScalarCols(r), MakeColSet(10, 2, 30)) {
		t.Errorf("RemapScalar: %v", ScalarCols(r))
	}
	if CmpLt.Commute() != CmpGt || CmpEq.Commute() != CmpEq || CmpGe.Commute() != CmpLe {
		t.Error("Commute")
	}
}

func TestOrderingHelpers(t *testing.T) {
	o := Ordering{{Col: 1}, {Col: 2, Desc: true}}
	if o.Key() != "+1-2" {
		t.Errorf("Key = %q", o.Key())
	}
	if !o.SatisfiedBy(Ordering{{Col: 1}, {Col: 2, Desc: true}, {Col: 3}}) {
		t.Error("stronger ordering should satisfy")
	}
	if o.SatisfiedBy(Ordering{{Col: 1}}) {
		t.Error("prefix does not satisfy")
	}
	if o.SatisfiedBy(Ordering{{Col: 2, Desc: true}, {Col: 1}}) {
		t.Error("order matters")
	}
	if o.String() == "" {
		t.Error("String")
	}
}

func TestFormatAndRemapRel(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT did, COUNT(*) FROM Emp WHERE sal > 1 GROUP BY did ORDER BY did LIMIT 3")
	s := Format(q.Root, q.Meta)
	for _, frag := range []string{"limit 3", "group-by", "select", "scan Emp"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Format missing %q:\n%s", frag, s)
		}
	}
	// Remap all columns by +100 and confirm structure holds.
	mapping := map[ColumnID]ColumnID{}
	for i := 1; i <= q.Meta.NumColumns(); i++ {
		mapping[ColumnID(i)] = ColumnID(i + 100)
	}
	r := RemapRel(q.Root, mapping)
	r.OutputCols().ForEach(func(cid ColumnID) {
		if cid <= 100 {
			t.Errorf("column %d not remapped", cid)
		}
	})
}

func TestFreeCols(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, `SELECT dname FROM Dept WHERE EXISTS (SELECT 1 FROM Emp WHERE Emp.did = Dept.did)`)
	// The subquery plan has one free column (Dept.did).
	var sub *Subquery
	VisitRel(q.Root, func(e RelExpr) {
		for _, s := range Scalars(e) {
			VisitScalar(s, func(sc Scalar) {
				if sq, ok := sc.(*Subquery); ok {
					sub = sq
				}
			})
		}
	})
	if sub == nil {
		t.Fatal("no subquery")
	}
	if sub.OuterCols.Len() != 1 {
		t.Errorf("OuterCols = %v", sub.OuterCols)
	}
	if got := FreeCols(sub.Plan); !sameCols(got, sub.OuterCols) {
		t.Errorf("FreeCols = %v, want %v", got, sub.OuterCols)
	}
}

func TestWithChildrenAllOps(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, "SELECT DISTINCT did FROM Emp WHERE sal > 1 ORDER BY did LIMIT 2")
	var check func(e RelExpr)
	check = func(e RelExpr) {
		ch := Children(e)
		cp := WithChildren(e, ch)
		if len(Children(cp)) != len(ch) {
			t.Errorf("WithChildren changed arity for %T", e)
		}
		for _, c := range ch {
			check(c)
		}
	}
	check(q.Root)
}

func TestBuildUnionAndFormat(t *testing.T) {
	c := paperCatalog(t)
	q := build(t, c, `SELECT name FROM Emp WHERE sal > 100
		UNION ALL SELECT dname FROM Dept
		UNION SELECT loc FROM Dept
		ORDER BY name DESC LIMIT 4`)
	// Shape: Limit over GroupBy(distinct) over Union over (Union, Project).
	lim, ok := q.Root.(*Limit)
	if !ok {
		t.Fatalf("root %T", q.Root)
	}
	g, ok := lim.Input.(*GroupBy)
	if !ok || len(g.Aggs) != 0 {
		t.Fatalf("distinct layer %T", lim.Input)
	}
	u, ok := g.Input.(*Union)
	if !ok {
		t.Fatalf("union %T", g.Input)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Error("union ORDER BY lost")
	}
	if !q.OrderBy[0:1].SatisfiedBy(Ordering{{Col: u.Cols[0], Desc: true}}) {
		t.Error("order column should be the union output")
	}
	s := Format(q.Root, q.Meta)
	if !strings.Contains(s, "union-all") {
		t.Errorf("Format missing union:\n%s", s)
	}
	// Remap the whole tree; output cols must move.
	mapping := map[ColumnID]ColumnID{}
	for i := 1; i <= q.Meta.NumColumns(); i++ {
		mapping[ColumnID(i)] = ColumnID(i + 500)
	}
	r := RemapRel(q.Root, mapping).(*Limit).Input.(*GroupBy).Input.(*Union)
	for _, cid := range r.Cols {
		if cid <= 500 {
			t.Fatalf("union col %d not remapped", cid)
		}
	}
	// WithChildren/Children round-trip on Union.
	ch := Children(u)
	if len(ch) != 2 {
		t.Fatal("union children")
	}
	cp := WithChildren(u, ch).(*Union)
	if len(cp.Cols) != len(u.Cols) {
		t.Fatal("WithChildren lost payload")
	}
}

func TestBuildUnionErrors(t *testing.T) {
	c := paperCatalog(t)
	buildErr(t, c, "SELECT name, sal FROM Emp UNION SELECT dname FROM Dept")
	buildErr(t, c, "SELECT name FROM Emp UNION SELECT dname FROM Dept ORDER BY sal")
	buildErr(t, c, "SELECT name FROM Emp UNION SELECT dname FROM Dept ORDER BY Emp.name")
}

func TestExpandGroupingSetsShapes(t *testing.T) {
	c := paperCatalog(t)
	// ROLLUP(a, b) → 3 arms; CUBE(a, b) → 4 arms.
	q := build(t, c, "SELECT did, age, COUNT(*) FROM Emp GROUP BY ROLLUP (did, age)")
	unions := 0
	VisitRel(q.Root, func(e RelExpr) {
		if _, ok := e.(*Union); ok {
			unions++
		}
	})
	if unions != 2 { // 3 arms chain into 2 union nodes
		t.Errorf("rollup unions = %d, want 2", unions)
	}
	q = build(t, c, "SELECT did, age, COUNT(*) FROM Emp GROUP BY CUBE (did, age)")
	unions = 0
	VisitRel(q.Root, func(e RelExpr) {
		if _, ok := e.(*Union); ok {
			unions++
		}
	})
	if unions != 3 {
		t.Errorf("cube unions = %d, want 3", unions)
	}
	// Aggregate args must keep their references even when the column is
	// rolled away: SUM(sal) with sal not grouped is unaffected by null-out.
	q = build(t, c, "SELECT did, SUM(sal) FROM Emp GROUP BY ROLLUP (did)")
	sums := 0
	VisitRel(q.Root, func(e RelExpr) {
		if g, ok := e.(*GroupBy); ok {
			for _, a := range g.Aggs {
				if a.Fn == AggSum && a.Arg != nil {
					sums++
				}
			}
		}
	})
	if sums != 2 {
		t.Errorf("both arms should aggregate sal: %d", sums)
	}
}
