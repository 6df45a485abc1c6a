package physical

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
)

// fmtFormat and fmtDescribe are Format and Describe as they were written with
// fmt; TestFormatMatchesFmt holds the strconv versions to their output.
func fmtFormat(p Plan, md *logical.Metadata) string {
	var sb strings.Builder
	var walk func(p Plan, depth int)
	walk = func(p Plan, depth int) {
		rows, cost := p.Estimate()
		fmt.Fprintf(&sb, "%s%s  (rows=%.0f cost=%.1f)\n", strings.Repeat("  ", depth), fmtDescribe(p, md), rows, cost)
		for _, c := range Children(p) {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return sb.String()
}

func fmtOrdering(o logical.Ordering) string {
	parts := make([]string, len(o))
	for i, s := range o {
		dir := "+"
		if s.Desc {
			dir = "-"
		}
		parts[i] = fmt.Sprintf("%s@%d", dir, int(s.Col))
	}
	return strings.Join(parts, ",")
}

func fmtDescribe(p Plan, md *logical.Metadata) string {
	switch t := p.(type) {
	case *TableScan:
		s := fmt.Sprintf("table-scan %s", t.Table.Name)
		if len(t.Filter) > 0 {
			s += " filter=" + formatPreds(t.Filter, md)
		}
		return s
	case *IndexScan:
		s := fmt.Sprintf("index-scan %s.%s", t.Table.Name, t.Index.Name)
		if len(t.EqKey) > 0 {
			s += fmt.Sprintf(" eq=%s", t.EqKey)
		}
		if !t.Lo.IsNull() || !t.Hi.IsNull() {
			s += fmt.Sprintf(" range=[%s,%s]", t.Lo, t.Hi)
		}
		if len(t.Filter) > 0 {
			s += " filter=" + formatPreds(t.Filter, md)
		}
		return s
	case *ValuesOp:
		return fmt.Sprintf("values (%d rows)", len(t.Rows))
	case *Filter:
		return "filter " + formatPreds(t.Preds, md)
	case *Project:
		return "project"
	case *Sort:
		return "sort " + fmtOrdering(t.By)
	case *NLJoin:
		return fmt.Sprintf("nested-loop-%s %s", t.Kind, formatPreds(t.On, md))
	case *INLJoin:
		return fmt.Sprintf("index-nl-%s %s.%s", t.Kind, t.Table.Name, t.Index.Name)
	case *MergeJoin:
		return fmt.Sprintf("merge-%s", t.Kind)
	case *HashJoin:
		return fmt.Sprintf("hash-%s", t.Kind)
	case *HashGroupBy:
		return "hash-group-by"
	case *StreamGroupBy:
		return "stream-group-by"
	case *LimitOp:
		return fmt.Sprintf("limit %d", t.N)
	case *UnionAll:
		return "union-all"
	}
	return fmt.Sprintf("%T", p)
}

// TestFormatMatchesFmt: every plan node kind, with estimates of every shape
// (zero, negative zero, fractions that round, huge, NaN, ±Inf), renders
// byte-identically to the fmt-based formatting.
func TestFormatMatchesFmt(t *testing.T) {
	md, scan, ixScan := fixturePlans()
	a, b := scan.Cols[0], scan.Cols[1]
	cmp := func(op logical.CmpOp, id logical.ColumnID, v int64) logical.Scalar {
		return &logical.Cmp{Op: op, L: &logical.Col{ID: id}, R: &logical.Const{Val: datum.NewInt(v)}}
	}
	filtered := *scan
	filtered.Filter = []logical.Scalar{cmp(logical.CmpGt, a, 3), cmp(logical.CmpLe, b, 9)}
	eqRange := *ixScan
	eqRange.EqKey = datum.Row{datum.NewString("x"), datum.NewFloat(2.5)}
	eqRange.Lo, eqRange.LoIncl, eqRange.Hi = datum.NewInt(-4), true, datum.NewFloat(1e21)
	rangeOnly := *ixScan
	rangeOnly.EqKey, rangeOnly.Hi, rangeOnly.HiIncl = nil, datum.NewInt(20), true
	rangeOnly.Filter = filtered.Filter[:1]
	by := logical.Ordering{{Col: a}, {Col: b, Desc: true}}
	values := &ValuesOp{Cols: []logical.ColumnID{a}, Rows: [][]logical.Scalar{{&logical.Const{Val: datum.NewInt(1)}}, {&logical.Const{Val: datum.Null}}}}
	var plan Plan = &UnionAll{
		Left: &LimitOp{N: math.MaxInt64,
			Input: &Sort{By: by, Input: &HashGroupBy{GroupCols: []logical.ColumnID{a},
				Input: &NLJoin{Kind: logical.LeftOuterJoin, On: []logical.Scalar{cmp(logical.CmpEq, a, 7)},
					Left:  &HashJoin{Kind: logical.SemiJoin, Left: &filtered, Right: &eqRange},
					Right: &MergeJoin{Kind: logical.FullOuterJoin, Left: &rangeOnly, Right: values}}}}},
		Right: &LimitOp{N: 10, Input: &StreamGroupBy{
			Input: &Filter{Preds: filtered.Filter, Input: &Project{Input: &NLJoin{Kind: logical.AntiJoin,
				Left:  &INLJoin{Kind: logical.InnerJoin, Left: scan, Table: ixScan.Table, Index: ixScan.Index},
				Right: ixScan}}}}},
	}
	ests := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 0.05, 0.25, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1), 123456789.987, 4.4e-9}
	var nodes []Plan
	var collect func(Plan)
	collect = func(p Plan) {
		nodes = append(nodes, p)
		for _, c := range Children(p) {
			collect(c)
		}
	}
	collect(plan)
	seen := map[string]bool{}
	for i, n := range nodes {
		seen[fmt.Sprintf("%T", n)] = true
		props := Props{Rows: ests[i%len(ests)], Cost: ests[(i+5)%len(ests)]}
		reflect.ValueOf(n).Elem().FieldByName("Props").Set(reflect.ValueOf(props))
		if got, want := Describe(n, md), fmtDescribe(n, md); got != want {
			t.Errorf("Describe = %q, fmt gives %q", got, want)
		}
	}
	if len(seen) != 14 {
		t.Fatalf("the plan covers %d node kinds, want all 14", len(seen))
	}
	if got, want := Format(plan, md), fmtFormat(plan, md); got != want {
		t.Errorf("Format:\n%s\nfmt gives:\n%s", got, want)
	}
	// Every estimate also in the rows and the cost position of one node.
	for _, r := range ests {
		for _, c := range ests {
			n := &LimitOp{Props: Props{Rows: r, Cost: c}, N: 1, Input: &ValuesOp{}}
			if got, want := Format(n, md), fmtFormat(n, md); got != want {
				t.Errorf("Format = %q, fmt gives %q", got, want)
			}
		}
	}
	// The integer rounding of estimates below 2^53 against strconv: exact
	// .5 and .x5 ties and their neighbours, the ends of the fast range,
	// subnormals, and random values of every magnitude and bit pattern.
	vals := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.75, 0.95, 9.95, 99.95, 1.125, 1 << 52, 1<<52 + 0.5,
		1<<53 - 1, 1 << 53, 1<<53 + 2, 5e-324, 2.2250738585072014e-308, 1e-300, 0.049999999999999996}
	for k := 0; k < 200; k++ {
		vals = append(vals, float64(k)+0.5, float64(k)/4+1.0/8, float64(k)/20)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60000; i++ {
		switch i % 3 {
		case 0:
			vals = append(vals, rng.Float64()*math.Pow(10, float64(rng.Intn(20)-3)))
		case 1:
			vals = append(vals, math.Float64frombits(rng.Uint64()))
		default:
			vals = append(vals, float64(rng.Int63n(1<<53))/float64(int64(1)<<rng.Intn(60)))
		}
	}
	for _, v := range vals {
		for _, x := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			for prec := 0; prec <= 1; prec++ {
				if got, want := string(appendFixed(nil, x, prec)), strconv.FormatFloat(x, 'f', prec, 64); got != want {
					t.Fatalf("appendFixed(%v (%x), %d) = %s, strconv gives %s", x, math.Float64bits(x), prec, got, want)
				}
			}
		}
	}
}

// subqueryPlan is a filter whose predicate holds a correlated EXISTS with a
// sub-plan, and a NOT IN whose body is an uncorrelated scan with a parameter
// in its filter.
func subqueryPlan() (*logical.Metadata, Plan) {
	md, scan, _ := fixturePlans()
	inner := md.AddTable(scan.Table, "u")
	a, ua, ub := scan.Cols[0], inner[0], inner[1]
	body := &TableScan{Props: Props{Rows: 2, Cost: 3}, Table: scan.Table, Binding: "u", Cols: inner, ColOrds: []int{0, 1},
		Filter: []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: ub}, R: &logical.Col{ID: a}}}}
	exists := &logical.Subquery{Mode: logical.SubExists, OutCol: ua, Body: body}
	exists.OuterCols.Add(a)
	param := &TableScan{Props: Props{Rows: 4, Cost: 3}, Table: scan.Table, Binding: "u", Cols: inner, ColOrds: []int{0, 1},
		Filter: []logical.Scalar{&logical.Cmp{Op: logical.CmpGt, L: &logical.Col{ID: ub}, R: &logical.Const{Val: datum.NewInt(5), Param: 1}}}}
	notIn := &logical.Subquery{Mode: logical.SubIn, Negated: true, Scalar: &logical.Col{ID: a}, OutCol: ua, Body: param}
	return md, &Filter{Props: Props{Rows: 50, Cost: 20}, Input: scan,
		Preds: []logical.Scalar{&logical.Or{L: exists, R: notIn}}}
}

// TestFormatSubPlans: a subquery's sub-plan renders under the operator whose
// scalar holds it, one level in, below a line naming its mode and its
// correlated columns.
func TestFormatSubPlans(t *testing.T) {
	md, plan := subqueryPlan()
	want := `filter [(EXISTS <subquery corr=(1)> OR (t.a NOT IN <subquery>))]  (rows=50 cost=20.0)
  subquery EXISTS corr=(t.a)
    table-scan t filter=[(u.b = t.a)]  (rows=2 cost=3.0)
  subquery NOT IN corr=()
    table-scan t filter=[(u.b > $1)]  (rows=4 cost=3.0)
  table-scan t  (rows=100 cost=10.0)
`
	if got := Format(plan, md); got != want {
		t.Errorf("Format:\n%s\nwant:\n%s", got, want)
	}
}
