package physical

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
)

// paramPlan builds Filter($1 < col) over IndexScan(eq=[$1], lo=$2) — every
// substitution site in one small tree.
func paramPlan() (*Filter, *IndexScan) {
	tab := &catalog.Table{Name: "t", Cols: []catalog.Column{{Name: "a", Kind: datum.KindInt}}}
	ix := &catalog.Index{Name: "t_a", Cols: []int{0}}
	scan := &IndexScan{
		Table: tab, Index: ix,
		Cols: []logical.ColumnID{1}, ColOrds: []int{0},
		EqKey: datum.Row{datum.NewInt(10)}, EqKeyParams: []int{1},
		Lo: datum.NewInt(20), LoParam: 2, LoIncl: true,
		Filter: []logical.Scalar{
			&logical.Cmp{Op: logical.CmpGt, L: &logical.Col{ID: 1}, R: &logical.Const{Val: datum.NewInt(10), Param: 1}},
		},
	}
	f := &Filter{
		Input: scan,
		Preds: []logical.Scalar{
			&logical.Cmp{Op: logical.CmpLt, L: &logical.Const{Val: datum.NewInt(20), Param: 2}, R: &logical.Col{ID: 1}},
		},
	}
	return f, scan
}

func TestBindParamsSubstitutes(t *testing.T) {
	f, _ := paramPlan()
	bound := BindParams(f, []datum.D{datum.NewInt(77), datum.NewInt(88)}).(*Filter)
	scan := bound.Input.(*IndexScan)
	if got := scan.EqKey[0].Int(); got != 77 {
		t.Fatalf("EqKey[0] = %d, want 77", got)
	}
	if got := scan.Lo.Int(); got != 88 {
		t.Fatalf("Lo = %d, want 88", got)
	}
	if c := scan.Filter[0].(*logical.Cmp).R.(*logical.Const); c.Val.Int() != 77 || c.Param != 1 {
		t.Fatalf("scan filter const = %v (param %d), want 77 (param 1)", c.Val, c.Param)
	}
	if c := bound.Preds[0].(*logical.Cmp).L.(*logical.Const); c.Val.Int() != 88 {
		t.Fatalf("filter const = %v, want 88", c.Val)
	}
}

func TestBindParamsDoesNotAliasOriginal(t *testing.T) {
	f, scan := paramPlan()
	b1 := BindParams(f, []datum.D{datum.NewInt(1), datum.NewInt(2)}).(*Filter)
	b2 := BindParams(f, []datum.D{datum.NewInt(3), datum.NewInt(4)}).(*Filter)

	// The original template keeps its probe values.
	if scan.EqKey[0].Int() != 10 || scan.Lo.Int() != 20 {
		t.Fatalf("original plan mutated: eq=%v lo=%v", scan.EqKey[0], scan.Lo)
	}
	// The two bindings are independent trees.
	s1, s2 := b1.Input.(*IndexScan), b2.Input.(*IndexScan)
	if s1 == scan || s2 == scan || s1 == s2 {
		t.Fatal("BindParams aliased plan nodes")
	}
	if s1.EqKey[0].Int() != 1 || s2.EqKey[0].Int() != 3 {
		t.Fatalf("bindings interfered: %v vs %v", s1.EqKey[0], s2.EqKey[0])
	}
	// Scalar nodes must not be shared either.
	if s1.Filter[0] == scan.Filter[0] || s1.Filter[0] == s2.Filter[0] {
		t.Fatal("BindParams aliased scalar nodes")
	}
}

func TestBindParamsKeepsUnboundOrdinals(t *testing.T) {
	f, _ := paramPlan()
	// Only one binding supplied: $2 keeps its probe value.
	bound := BindParams(f, []datum.D{datum.NewInt(5)}).(*Filter)
	scan := bound.Input.(*IndexScan)
	if scan.EqKey[0].Int() != 5 || scan.Lo.Int() != 20 {
		t.Fatalf("partial bind wrong: eq=%v lo=%v", scan.EqKey[0], scan.Lo)
	}
}

// TestBindParamsRebindsSubPlans: a parameter inside a subquery's sub-plan is
// re-bound like one in the plan itself, and the cached plan keeps its probe
// value.
func TestBindParamsRebindsSubPlans(t *testing.T) {
	_, plan := subqueryPlan()
	bound := BindParams(plan, []datum.D{datum.NewInt(9)})
	param := func(p Plan) int64 {
		body := Subqueries(p)[1].Body.(*TableScan)
		return body.Filter[0].(*logical.Cmp).R.(*logical.Const).Val.Int()
	}
	if got := param(bound); got != 9 {
		t.Errorf("bound sub-plan compares with %d, want 9", got)
	}
	if got := param(plan); got != 5 {
		t.Errorf("cached sub-plan compares with %d, want 5", got)
	}
}
