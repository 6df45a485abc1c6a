package physical

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
)

func fixturePlans() (md *logical.Metadata, scan *TableScan, ixScan *IndexScan) {
	md = logical.NewMetadata()
	tbl := &catalog.Table{
		Name: "t",
		Cols: []catalog.Column{
			{Name: "a", Kind: datum.KindInt},
			{Name: "b", Kind: datum.KindInt},
		},
		Indexes: []*catalog.Index{
			{Name: "t_a", Cols: []int{0}, Clustered: true},
			{Name: "t_b", Cols: []int{1}},
		},
	}
	ids := md.AddTable(tbl, "t")
	scan = &TableScan{
		Props: Props{Rows: 100, Cost: 10},
		Table: tbl, Binding: "t", Cols: ids, ColOrds: []int{0, 1},
	}
	ixScan = &IndexScan{
		Props: Props{Rows: 5, Cost: 2},
		Table: tbl, Index: tbl.Indexes[1], Binding: "t",
		Cols: ids, ColOrds: []int{0, 1},
		EqKey: datum.Row{datum.NewInt(7)},
	}
	return md, scan, ixScan
}

func TestOrderingProperties(t *testing.T) {
	_, scan, ixScan := fixturePlans()
	// Heap scan carries the clustered index order (column a).
	ord := scan.Ordering()
	if len(ord) != 1 || ord[0].Col != scan.Cols[0] {
		t.Errorf("clustered scan ordering = %v", ord)
	}
	// Index scan carries the index order (column b).
	iord := ixScan.Ordering()
	if len(iord) != 1 || iord[0].Col != scan.Cols[1] {
		t.Errorf("index scan ordering = %v", iord)
	}
	// Sort declares its key; filter passes through; hash group-by drops it.
	s := &Sort{Input: scan, By: logical.Ordering{{Col: scan.Cols[1], Desc: true}}}
	if s.Ordering().Key() != "-"+itoa(int(scan.Cols[1])) {
		t.Errorf("sort ordering = %v", s.Ordering())
	}
	f := &Filter{Input: s}
	if f.Ordering().Key() != s.Ordering().Key() {
		t.Error("filter should preserve ordering")
	}
	g := &HashGroupBy{Input: s, GroupCols: []logical.ColumnID{scan.Cols[0]}}
	if len(g.Ordering()) != 0 {
		t.Error("hash group-by output is unordered")
	}
	sg := &StreamGroupBy{Input: s, GroupCols: []logical.ColumnID{scan.Cols[0]}}
	if len(sg.Ordering()) != 1 {
		t.Error("stream group-by preserves group order")
	}
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + itoa(v%10)
}

func TestProjectOrderingPrefix(t *testing.T) {
	_, scan, _ := fixturePlans()
	// Project keeps only column b: the clustered (a) ordering is lost.
	p := &Project{Input: scan, Items: []logical.ProjectItem{
		{ID: scan.Cols[1], Expr: &logical.Col{ID: scan.Cols[1]}},
	}}
	if len(p.Ordering()) != 0 {
		t.Errorf("projecting away the ordering column must drop the order, got %v", p.Ordering())
	}
	// Passthrough of the ordering column keeps it.
	p2 := &Project{Input: scan, Items: []logical.ProjectItem{
		{ID: scan.Cols[0], Expr: &logical.Col{ID: scan.Cols[0]}},
	}}
	if len(p2.Ordering()) != 1 {
		t.Error("passthrough of ordered column should keep the order")
	}
}

func TestJoinColumnsAndChildren(t *testing.T) {
	_, scan, ixScan := fixturePlans()
	for _, p := range []Plan{
		&NLJoin{Kind: logical.InnerJoin, Left: scan, Right: ixScan},
		&HashJoin{Kind: logical.SemiJoin, Left: scan, Right: ixScan},
		&MergeJoin{Kind: logical.LeftOuterJoin, Left: scan, Right: ixScan,
			LeftKeys: []logical.ColumnID{scan.Cols[0]}, RightKeys: []logical.ColumnID{ixScan.Cols[0]}},
	} {
		cols := p.Columns()
		switch j := p.(type) {
		case *HashJoin:
			if j.Kind == logical.SemiJoin && len(cols) != 2 {
				t.Errorf("semijoin columns = %d, want left only", len(cols))
			}
		default:
			if len(cols) != 4 {
				t.Errorf("%T columns = %d, want 4", p, len(cols))
			}
			_ = j
		}
		if len(Children(p)) != 2 {
			t.Errorf("%T children", p)
		}
	}
	inl := &INLJoin{Kind: logical.InnerJoin, Left: scan, Table: ixScan.Table,
		Index: ixScan.Index, Cols: ixScan.Cols, ColOrds: ixScan.ColOrds}
	if len(inl.Columns()) != 4 || len(Children(inl)) != 1 {
		t.Error("INL join shape wrong")
	}
	mj := &MergeJoin{Left: scan, Right: ixScan, LeftKeys: []logical.ColumnID{scan.Cols[0]}}
	if len(mj.Ordering()) != 1 {
		t.Error("merge join output ordered on left keys")
	}
}

func TestFormatIncludesEstimates(t *testing.T) {
	md, scan, ixScan := fixturePlans()
	plan := &NLJoin{
		Props: Props{Rows: 42, Cost: 99.5},
		Kind:  logical.InnerJoin, Left: scan, Right: ixScan,
		On: []logical.Scalar{&logical.Cmp{Op: logical.CmpEq,
			L: &logical.Col{ID: scan.Cols[0]}, R: &logical.Col{ID: ixScan.Cols[1]}}},
	}
	out := Format(plan, md)
	for _, frag := range []string{"nested-loop", "rows=42", "cost=99.5", "table-scan t", "index-scan t.t_b", "eq=(7)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Format missing %q:\n%s", frag, out)
		}
	}
}

func TestLimitAndValues(t *testing.T) {
	_, scan, _ := fixturePlans()
	l := &LimitOp{Input: scan, N: 5}
	if len(l.Columns()) != 2 || len(l.Ordering()) != 1 {
		t.Error("limit passthrough wrong")
	}
	v := &ValuesOp{Cols: []logical.ColumnID{scan.Cols[0]}}
	if v.Ordering() != nil || len(v.Columns()) != 1 {
		t.Error("values op wrong")
	}
}
