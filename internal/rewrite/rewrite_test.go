package rewrite

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/reference"
	"repro/internal/sql"
	"repro/internal/workload"
)

func buildQuery(t *testing.T, db *workload.DB, q string) *logical.Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	query, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	logical.NormalizeQuery(query, logical.DefaultNormalize())
	return query
}

func runQ(t *testing.T, db *workload.DB, q *logical.Query) []string {
	t.Helper()
	res, err := reference.New(db.Store, q.Meta).RunQuery(q)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, logical.Format(q.Root, q.Meta))
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var sb strings.Builder
		for j, d := range r {
			if j > 0 {
				sb.WriteString("|")
			}
			if !d.IsNull() && d.Kind() == datum.KindFloat {
				// The shortest form that parses back to the same float64:
				// two results agree only if every float agrees to the bit.
				sb.WriteString(strconv.FormatFloat(d.Float(), 'g', -1, 64))
			} else {
				sb.WriteString(d.String())
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// checkEquivalent verifies that a transformation preserved results.
func checkEquivalent(t *testing.T, db *workload.DB, qs string, transform func(*logical.Query)) (*logical.Query, *logical.Query) {
	t.Helper()
	before := buildQuery(t, db, qs)
	after := buildQuery(t, db, qs)
	transform(after)
	bRows := runQ(t, db, before)
	aRows := runQ(t, db, after)
	if strings.Join(bRows, ";") != strings.Join(aRows, ";") {
		t.Fatalf("transformation changed results for %q\nbefore (%d): %.400v\nafter  (%d): %.400v\nplan:\n%s",
			qs, len(bRows), bRows, len(aRows), aRows, logical.Format(after.Root, after.Meta))
	}
	return before, after
}

func countSubqueries(q *logical.Query) int {
	n := 0
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		for _, s := range logical.Scalars(e) {
			logical.VisitScalar(s, func(sc logical.Scalar) {
				if _, ok := sc.(*logical.Subquery); ok {
					n++
				}
			})
		}
	})
	return n
}

func countJoinKind(q *logical.Query, kind logical.JoinKind) int {
	n := 0
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if j, ok := e.(*logical.Join); ok && j.Kind == kind {
			n++
		}
	})
	return n
}

func TestUnnestInSubquery(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 500, Depts: 20})
	// The paper's §4.2.2 example: correlated IN.
	qs := `SELECT e.name FROM Emp e WHERE e.did IN
		(SELECT d.did FROM Dept d WHERE d.loc = 'Denver' AND e.eid = d.mgr)`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.SemiJoins != 1 {
			t.Errorf("expected 1 semijoin, got %+v", st)
		}
	})
	if countSubqueries(after) != 0 {
		t.Error("subquery should be gone")
	}
	if countJoinKind(after, logical.SemiJoin) != 1 {
		t.Error("semijoin missing")
	}
}

func TestUnnestExists(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 500, Depts: 20})
	qs := `SELECT d.dname FROM Dept d WHERE EXISTS
		(SELECT 1 FROM Emp e WHERE e.did = d.did AND e.sal > 10000)`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.SemiJoins != 1 {
			t.Errorf("expected 1 semijoin, got %+v", st)
		}
	})
	qs = `SELECT d.dname FROM Dept d WHERE NOT EXISTS
		(SELECT 1 FROM Emp e WHERE e.did = d.did)`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.AntiJoins != 1 {
			t.Errorf("expected 1 antijoin, got %+v", st)
		}
	})
}

func TestUnnestNotInNullable(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 500, Depts: 20})
	// Emp.did is nullable: NOT IN must NOT unnest (NULL semantics).
	qs := `SELECT d.dname FROM Dept d WHERE d.did NOT IN (SELECT e.did FROM Emp e)`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.AntiJoins != 0 {
			t.Errorf("nullable NOT IN must not become antijoin: %+v", st)
		}
	})
	if countSubqueries(after) == 0 {
		t.Error("subquery should remain for tuple-iteration")
	}
	// eid/did keys are NOT NULL: this one may unnest.
	qs = `SELECT e.name FROM Emp e WHERE e.eid NOT IN (SELECT d.mgr FROM Dept d WHERE d.budget > 500)`
	// Dept.mgr is nullable per schema? mgr has no NOT NULL: check it stays.
	checkEquivalent(t, db, qs, func(q *logical.Query) { UnnestSubqueries(q) })
	qs = `SELECT e.name FROM Emp e WHERE e.eid NOT IN (SELECT d.did FROM Dept d WHERE d.budget > 900)`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.AntiJoins != 1 {
			t.Errorf("NOT NULL NOT IN should become antijoin: %+v", st)
		}
	})
}

func TestUnnestScalarAggCountBug(t *testing.T) {
	// The paper's COUNT example: departments where num_machines >= the
	// number of employees — including departments with NO employees, which
	// the naive join-based flattening would lose.
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 200, Depts: 40})
	qs := `SELECT d.dname FROM Dept d WHERE d.num_machines >=
		(SELECT COUNT(*) FROM Emp e WHERE e.did = d.did)`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.OuterJoinAggs != 1 {
			t.Errorf("expected outerjoin+agg unnesting, got %+v", st)
		}
	})
	if countJoinKind(after, logical.LeftOuterJoin) != 1 {
		t.Error("left outer join missing after unnesting")
	}
	if countSubqueries(after) != 0 {
		t.Error("subquery should be gone")
	}
}

func TestUnnestScalarAggAvg(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 300, Depts: 30})
	qs := `SELECT e.name FROM Emp e WHERE e.sal >
		(SELECT AVG(e2.sal) FROM Emp e2 WHERE e2.did = e.did)`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := UnnestSubqueries(q)
		if st.OuterJoinAggs != 1 {
			t.Errorf("expected outerjoin+agg unnesting, got %+v", st)
		}
	})
}

func TestUnnestReducesSubqueryEvals(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 1000, Depts: 30})
	qs := `SELECT d.dname FROM Dept d WHERE EXISTS
		(SELECT 1 FROM Emp e WHERE e.did = d.did)`
	nested := buildQuery(t, db, qs)
	ctxN := reference.New(db.Store, nested.Meta)
	if _, err := ctxN.RunQuery(nested); err != nil {
		t.Fatal(err)
	}
	flat := buildQuery(t, db, qs)
	UnnestSubqueries(flat)
	ctxF := reference.New(db.Store, flat.Meta)
	if _, err := ctxF.RunQuery(flat); err != nil {
		t.Fatal(err)
	}
	if ctxN.Counters.SubqueryEvals != 30 {
		t.Errorf("tuple iteration should evaluate the subquery once per Dept row: %d", ctxN.Counters.SubqueryEvals)
	}
	if ctxF.Counters.SubqueryEvals != 0 {
		t.Errorf("unnested query should not evaluate subqueries: %d", ctxF.Counters.SubqueryEvals)
	}
	if ctxF.Counters.RowsProcessed >= ctxN.Counters.RowsProcessed {
		t.Errorf("unnested should process fewer rows: %d vs %d",
			ctxF.Counters.RowsProcessed, ctxN.Counters.RowsProcessed)
	}
}

func countGroupBys(q *logical.Query) int {
	n := 0
	logical.VisitRel(q.Root, func(e logical.RelExpr) {
		if _, ok := e.(*logical.GroupBy); ok {
			n++
		}
	})
	return n
}

func TestPushDownGroupBy(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 5000, DimRows: []int{50}, Seed: 3})
	qs := `SELECT dim1.attr, SUM(sales.qty), COUNT(*), MIN(sales.amount), MAX(sales.amount)
		FROM sales, dim1 WHERE sales.k1 = dim1.k GROUP BY dim1.attr`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		if !PushDownGroupBy(q) {
			t.Fatal("expected rewrite")
		}
	})
	// Two GroupBys now: partial below the join, final above.
	if n := countGroupBys(after); n != 2 {
		t.Errorf("expected staged aggregation (2 group-bys), got %d\n%s", n, logical.Format(after.Root, after.Meta))
	}
}

// TestPushDownGroupByExactAggregates stages each exact aggregate on its own,
// and the results stay the same to the bit.
func TestPushDownGroupByExactAggregates(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 5000, DimRows: []int{40}, Seed: 13})
	for _, agg := range []string{"COUNT(*)", "COUNT(sales.qty)", "SUM(sales.qty)", "SUM(sales.qty * 3 + sales.k1)",
		"MIN(sales.qty)", "MAX(sales.amount)"} {
		qs := `SELECT dim1.filt, ` + agg + ` FROM sales, dim1 WHERE sales.k1 = dim1.k GROUP BY dim1.filt`
		_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
			if !PushDownGroupBy(q) {
				t.Errorf("%s should be staged", agg)
			}
		})
		if n := countGroupBys(after); n != 2 {
			t.Errorf("%s: %d group-bys, want 2", agg, n)
		}
	}
}

// TestPushDownGroupByRefusesInexact: a combining SUM over partial FLOAT sums
// rounds twice, and AVG's exact float sum differs from an INT partial sum
// past 2^53, so SUM over FLOAT and every AVG block the split, however much
// it would reduce.
func TestPushDownGroupByRefusesInexact(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 5000, DimRows: []int{40}, Seed: 13})
	for _, agg := range []string{"SUM(sales.amount)", "AVG(sales.amount)", "AVG(sales.qty)",
		"COUNT(*), SUM(sales.qty * 0.5)"} {
		qs := `SELECT dim1.filt, ` + agg + ` FROM sales, dim1 WHERE sales.k1 = dim1.k GROUP BY dim1.filt`
		checkEquivalent(t, db, qs, func(q *logical.Query) {
			if PushDownGroupBy(q) {
				t.Errorf("%s must not be staged", agg)
			}
		})
	}
}

func TestPushDownGroupByReducesWork(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 20000, DimRows: []int{20}, Seed: 5})
	qs := `SELECT dim1.attr, SUM(sales.qty) FROM sales, dim1
		WHERE sales.k1 = dim1.k GROUP BY dim1.attr`
	plain := buildQuery(t, db, qs)
	ctxP := reference.New(db.Store, plain.Meta)
	if _, err := ctxP.RunQuery(plain); err != nil {
		t.Fatal(err)
	}
	pushed := buildQuery(t, db, qs)
	PushDownGroupBy(pushed)
	ctxQ := reference.New(db.Store, pushed.Meta)
	if _, err := ctxQ.RunQuery(pushed); err != nil {
		t.Fatal(err)
	}
	// Early aggregation collapses 20000 fact rows to ≤20 partials before
	// the join: the join side work must shrink dramatically.
	if ctxQ.Counters.RowsProcessed >= ctxP.Counters.RowsProcessed {
		t.Errorf("eager aggregation should reduce rows processed: %d vs %d",
			ctxQ.Counters.RowsProcessed, ctxP.Counters.RowsProcessed)
	}
}

func TestPushDownGroupBySkipsDistinct(t *testing.T) {
	db := workload.Star(workload.StarConfig{FactRows: 1000, DimRows: []int{20}, Seed: 7})
	qs := `SELECT dim1.attr, COUNT(DISTINCT sales.qty) FROM sales, dim1
		WHERE sales.k1 = dim1.k GROUP BY dim1.attr`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		if PushDownGroupBy(q) {
			t.Error("DISTINCT aggregates must not be staged")
		}
	})
}

func TestAssociateJoinOuterjoin(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{300, 100, 50}, Seed: 9})
	// R join (S LOJ T) with join pred touching R and S only.
	qs := `SELECT r1.payload FROM r1 JOIN (r2 LEFT OUTER JOIN r3 ON r2.fk = r3.pk) ON r1.fk = r2.pk`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		if !AssociateJoinOuterjoin(q) {
			t.Error("associativity should apply")
		}
	})
	// The LOJ must now be the root join with the inner join below-left.
	var topJoin *logical.Join
	logical.VisitRel(after.Root, func(e logical.RelExpr) {
		if j, ok := e.(*logical.Join); ok && topJoin == nil {
			topJoin = j
		}
	})
	if topJoin == nil || topJoin.Kind != logical.LeftOuterJoin {
		t.Fatalf("expected LOJ on top, got %v", topJoin)
	}
	if inner, ok := topJoin.Left.(*logical.Join); !ok || inner.Kind != logical.InnerJoin {
		t.Error("inner join should have moved below the outer join")
	}
}

func TestAssociateDoesNotApplyAcrossT(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{100, 50, 30}, Seed: 11})
	// Join predicate touches T: identity must not fire.
	qs := `SELECT r1.payload FROM r1 JOIN (r2 LEFT OUTER JOIN r3 ON r2.fk = r3.pk) ON r1.fk = r3.pk`
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		if AssociateJoinOuterjoin(q) {
			t.Error("identity must not apply when the join predicate references T")
		}
	})
}

func TestApplyMagicPaperExample(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 800, Depts: 50})
	if err := db.Cat.AddView(&catalog.View{Name: "DepAvgSal",
		SQL: "SELECT e.did AS did, AVG(e.sal) AS avgsal FROM Emp e GROUP BY e.did"}); err != nil {
		t.Fatal(err)
	}
	// The §4.3 query.
	qs := `SELECT e.eid, e.sal FROM Emp e, Dept d, DepAvgSal v
		WHERE e.did = d.did AND e.did = v.did
		AND e.age < 30 AND d.budget > 900 AND e.sal > v.avgsal`
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		st := ApplyMagic(q)
		if st.ViewsRestricted != 1 {
			t.Errorf("expected the view to be restricted, got %+v", st)
		}
	})
	if countJoinKind(after, logical.SemiJoin) != 1 {
		t.Error("magic semijoin missing")
	}
}

func TestApplyMagicReducesWork(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 1200, Depts: 80})
	if err := db.Cat.AddView(&catalog.View{Name: "DepAvgSal",
		SQL: "SELECT e.did AS did, AVG(e.sal) AS avgsal FROM Emp e GROUP BY e.did"}); err != nil {
		t.Fatal(err)
	}
	qs := `SELECT e.eid FROM Emp e, Dept d, DepAvgSal v
		WHERE e.did = d.did AND e.did = v.did
		AND e.age < 24 AND d.budget > 950 AND e.sal > v.avgsal`
	plain := buildQuery(t, db, qs)
	ctxP := reference.New(db.Store, plain.Meta)
	resP, err := ctxP.RunQuery(plain)
	if err != nil {
		t.Fatal(err)
	}
	magic := buildQuery(t, db, qs)
	ApplyMagic(magic)
	ctxM := reference.New(db.Store, magic.Meta)
	resM, err := ctxM.RunQuery(magic)
	if err != nil {
		t.Fatal(err)
	}
	if len(resP.Rows) != len(resM.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(resP.Rows), len(resM.Rows))
	}
}

func TestMovePredicates(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 2, RowsPer: []int{900, 900}, Seed: 21})
	// r1.fk = r2.pk and r1.fk < 50: the derived r2.pk < 50 can use r2's
	// clustered primary index.
	qs := "SELECT r1.payload FROM r1, r2 WHERE r1.fk = r2.pk AND r1.fk < 50"
	_, after := checkEquivalent(t, db, qs, func(q *logical.Query) {
		if got := MovePredicates(q); got != 1 {
			t.Errorf("derived = %d, want 1", got)
		}
	})
	// The derived predicate must reference r2.pk.
	found := false
	logical.VisitRel(after.Root, func(e logical.RelExpr) {
		for _, s := range logical.Scalars(e) {
			for _, c := range logical.SplitConjunction(s) {
				cmp, ok := c.(*logical.Cmp)
				if !ok || cmp.Op != logical.CmpLt {
					continue
				}
				if col, ok := cmp.L.(*logical.Col); ok {
					cm := after.Meta.Column(col.ID)
					if cm.Binding == "r2" && cm.Name == "pk" {
						found = true
					}
				}
			}
		}
	})
	if !found {
		t.Errorf("derived predicate on r2.pk missing:\n%s", logical.Format(after.Root, after.Meta))
	}
	// Idempotent: a second pass derives nothing.
	if got := MovePredicates(after); got != 0 {
		t.Errorf("second pass derived %d predicates", got)
	}
}

func TestMovePredicatesTransitive(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 3, RowsPer: []int{500, 500, 500}, Seed: 23})
	// Equality chain r1.fk = r2.pk, r2.pk = r3.payload plus a range on r1.fk:
	// both other class members gain the range.
	qs := "SELECT r1.payload FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.pk = r3.payload AND r1.fk BETWEEN 5 AND 90"
	checkEquivalent(t, db, qs, func(q *logical.Query) {
		if got := MovePredicates(q); got != 4 { // two bounds × two members
			t.Errorf("derived = %d, want 4", got)
		}
	})
}

func TestMovePredicatesNoEquiClasses(t *testing.T) {
	db := workload.Chain(workload.ChainConfig{Tables: 2, RowsPer: []int{100, 100}, Seed: 25})
	q := buildQuery(t, db, "SELECT r1.payload FROM r1, r2 WHERE r1.fk < r2.pk AND r1.payload = 7")
	if got := MovePredicates(q); got != 0 {
		t.Errorf("non-equi join should derive nothing, got %d", got)
	}
}
