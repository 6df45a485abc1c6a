package logical

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sql"
)

// maxViewDepth bounds view expansion to catch recursive definitions.
const maxViewDepth = 16

// Builder translates a parsed SELECT into the logical algebra, resolving
// names against the catalog. Views are expanded inline as nested query trees
// (the unfolding of §4.2.1); normalization and the rewrite package then merge
// or keep them as the optimizer decides.
type Builder struct {
	cat    *catalog.Catalog
	md     *Metadata
	depth  int
	udfs   map[string]udpTemplate
	params []datum.D
}

// udpTemplate describes a registered user-defined predicate (§7.2).
type udpTemplate struct {
	perTupleCost float64
	selectivity  float64
	fn           func([]datum.D) bool
}

// NewBuilder returns a builder over the given catalog.
func NewBuilder(cat *catalog.Catalog) *Builder {
	return &Builder{cat: cat, md: NewMetadata()}
}

// BindParams supplies values for the statement's parameter placeholders:
// `$n` resolves to vals[n-1]. Each placeholder becomes a Const tagged with
// its ordinal, so the physical plan built from this query can later be
// re-bound to different values (physical.BindParams) without re-optimizing.
func (b *Builder) BindParams(vals []datum.D) { b.params = vals }

// RegisterUDP makes a user-defined predicate callable from SQL. The declared
// per-tuple cost and selectivity drive the §7.2 optimizations; fn supplies
// executable behaviour.
func (b *Builder) RegisterUDP(name string, perTupleCost, selectivity float64, fn func([]datum.D) bool) {
	if b.udfs == nil {
		b.udfs = map[string]udpTemplate{}
	}
	b.udfs[strings.ToUpper(name)] = udpTemplate{perTupleCost, selectivity, fn}
}

// Build translates the statement into a Query.
func (b *Builder) Build(stmt *sql.SelectStmt) (*Query, error) {
	out, err := b.buildSelect(stmt, nil)
	if err != nil {
		return nil, err
	}
	q := &Query{
		Meta:       b.md,
		Root:       out.rel,
		ResultCols: out.resultCols,
		ColNames:   out.resultNames,
		OrderBy:    out.ordering,
	}
	return q, nil
}

// scopeCol is one name binding visible in a scope.
type scopeCol struct {
	binding string // table alias; may be empty for derived columns
	name    string
	id      ColumnID
}

// scope resolves column names; failed lookups escalate to the parent and are
// recorded as outer (correlated) references.
type scope struct {
	parent *scope
	cols   []scopeCol
	outer  ColSet
}

func (s *scope) resolve(table, name string) (ColumnID, bool) {
	var found ColumnID
	matches := 0
	for _, c := range s.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.binding, table) {
			continue
		}
		found = c.id
		matches++
	}
	if matches == 1 {
		return found, true
	}
	if matches > 1 {
		return 0, false // ambiguous; caller reports
	}
	if s.parent != nil {
		if id, ok := s.parent.resolve(table, name); ok {
			s.outer.Add(id)
			return id, true
		}
	}
	return 0, false
}

// local reports whether the scope binds column id itself, not through an
// enclosing query block.
func (s *scope) local(id ColumnID) bool {
	for _, c := range s.cols {
		if c.id == id {
			return true
		}
	}
	return false
}

func (s *scope) ambiguous(table, name string) bool {
	matches := 0
	for _, c := range s.cols {
		if strings.EqualFold(c.name, name) && (table == "" || strings.EqualFold(c.binding, table)) {
			matches++
		}
	}
	return matches > 1
}

// selectOut is the result of building one SELECT block.
type selectOut struct {
	rel         RelExpr
	resultCols  []ColumnID
	resultNames []string
	ordering    Ordering
}

func (b *Builder) buildSelect(sel *sql.SelectStmt, parent *scope) (*selectOut, error) {
	b.depth++
	defer func() { b.depth-- }()
	if b.depth > maxViewDepth {
		return nil, fmt.Errorf("logical: view/subquery nesting exceeds %d (recursive view?)", maxViewDepth)
	}

	// CUBE / ROLLUP expand into a UNION ALL of plain group-bys over the
	// grouping sets (the classical lowering of §7.4's CUBE [24]).
	if sel.Grouping != sql.GroupPlain {
		expanded, err := expandGroupingSets(sel)
		if err != nil {
			return nil, err
		}
		return b.buildSelect(expanded, parent)
	}
	if len(sel.Union) > 0 {
		return b.buildUnion(sel, parent)
	}

	// FROM.
	fromScope := &scope{parent: parent}
	var rel RelExpr
	if len(sel.From) == 0 {
		rel = &Values{Rows: [][]Scalar{{}}}
	} else {
		for _, te := range sel.From {
			r, err := b.buildTableExpr(te, fromScope, parent)
			if err != nil {
				return nil, err
			}
			if rel == nil {
				rel = r
			} else {
				rel = &Join{Kind: InnerJoin, Left: rel, Right: r}
			}
		}
	}

	// WHERE.
	if sel.Where != nil {
		filt, err := b.buildScalar(sel.Where, fromScope)
		if err != nil {
			return nil, err
		}
		if err := rejectAggregates(sel.Where); err != nil {
			return nil, err
		}
		rel = &Select{Input: rel, Filters: SplitConjunction(filt)}
	}

	// Aggregation: GROUP BY plus aggregates appearing in SELECT/HAVING/ORDER BY.
	aggCalls := collectAggCalls(sel)
	grouped := len(sel.GroupBy) > 0 || len(aggCalls) > 0

	// post maps the string form of a built scalar to the column holding it
	// after grouping.
	post := map[string]ColumnID{}
	var groupCols []ColumnID

	if grouped {
		// Build group-by expressions; non-column expressions are projected
		// below the GroupBy.
		var preItems []ProjectItem
		for _, ge := range sel.GroupBy {
			gs, err := b.buildScalar(ge, fromScope)
			if err != nil {
				return nil, err
			}
			if c, ok := gs.(*Col); ok {
				groupCols = append(groupCols, c.ID)
				post[gs.String()] = c.ID
				continue
			}
			id := b.md.AddColumn(ColumnMeta{Name: fmt.Sprintf("group%d", len(groupCols)+1), Kind: kindOf(gs, b.md)})
			preItems = append(preItems, ProjectItem{ID: id, Expr: gs})
			groupCols = append(groupCols, id)
			post[gs.String()] = id
		}
		if len(preItems) > 0 {
			// Pass through every input column alongside the computed keys.
			items := passthroughItems(rel)
			items = append(items, preItems...)
			rel = &Project{Input: rel, Items: items}
		}

		// Build aggregate items.
		var aggs []AggItem
		aggKey := map[string]ColumnID{}
		for _, fc := range aggCalls {
			item, err := b.buildAggItem(fc, fromScope)
			if err != nil {
				return nil, err
			}
			k := item.String() // canonical: fn + arg string
			if id, ok := aggKey[aggItemKey(item)]; ok {
				post[aggCallKey(fc, item)] = id
				continue
			}
			aggs = append(aggs, item)
			aggKey[aggItemKey(item)] = item.ID
			post[aggCallKey(fc, item)] = item.ID
			_ = k
		}
		rel = &GroupBy{Input: rel, GroupCols: groupCols, Aggs: aggs}
	}

	// buildPost builds a scalar in the post-grouping environment: aggregate
	// calls and group-by expressions become column references.
	buildPost := func(e sql.Expr) (Scalar, error) {
		if !grouped {
			return b.buildScalar(e, fromScope)
		}
		return b.buildGroupedScalar(e, fromScope, post)
	}

	// HAVING.
	if sel.Having != nil {
		if !grouped {
			return nil, fmt.Errorf("logical: HAVING requires GROUP BY or aggregates")
		}
		h, err := buildPost(sel.Having)
		if err != nil {
			return nil, err
		}
		rel = &Select{Input: rel, Filters: SplitConjunction(h)}
	}

	// SELECT list.
	var items []ProjectItem
	var resultCols []ColumnID
	var resultNames []string
	addItem := func(name string, sc Scalar) {
		if c, ok := sc.(*Col); ok {
			items = append(items, ProjectItem{ID: c.ID, Expr: sc})
			resultCols = append(resultCols, c.ID)
			resultNames = append(resultNames, name)
			return
		}
		id := b.md.AddColumn(ColumnMeta{Name: name, Kind: kindOf(sc, b.md)})
		items = append(items, ProjectItem{ID: id, Expr: sc})
		resultCols = append(resultCols, id)
		resultNames = append(resultNames, name)
	}
	for _, item := range sel.Select {
		switch {
		case item.Star:
			if grouped {
				return nil, fmt.Errorf("logical: SELECT * with GROUP BY is not supported")
			}
			for _, c := range fromScope.cols {
				addItem(c.name, &Col{ID: c.id})
			}
		case item.TableStar != "":
			if grouped {
				return nil, fmt.Errorf("logical: SELECT t.* with GROUP BY is not supported")
			}
			n := 0
			for _, c := range fromScope.cols {
				if strings.EqualFold(c.binding, item.TableStar) {
					addItem(c.name, &Col{ID: c.id})
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("logical: unknown table %q in %s.*", item.TableStar, item.TableStar)
			}
		default:
			sc, err := buildPost(item.Expr)
			if err != nil {
				return nil, err
			}
			name := item.Alias
			if name == "" {
				name = displayName(item.Expr)
			}
			addItem(name, sc)
		}
	}

	// ORDER BY: resolve against aliases first, then the post-group scope.
	var ordering Ordering
	var extraItems []ProjectItem
	for _, oi := range sel.OrderBy {
		var sc Scalar
		if cr, ok := oi.Expr.(*sql.ColRef); ok && cr.Table == "" {
			for i, n := range resultNames {
				if strings.EqualFold(n, cr.Name) {
					sc = &Col{ID: resultCols[i]}
					break
				}
			}
		}
		if sc == nil {
			var err error
			sc, err = buildPost(oi.Expr)
			if err != nil {
				return nil, err
			}
		}
		var id ColumnID
		if c, ok := sc.(*Col); ok {
			id = c.ID
			// Ensure the column survives projection.
			if !containsID(resultCols, id) && !containsItem(items, id) && !containsItem(extraItems, id) {
				extraItems = append(extraItems, ProjectItem{ID: id, Expr: sc})
			}
		} else {
			id = b.md.AddColumn(ColumnMeta{Name: "orderby", Kind: kindOf(sc, b.md)})
			extraItems = append(extraItems, ProjectItem{ID: id, Expr: sc})
		}
		ordering = append(ordering, OrderSpec{Col: id, Desc: oi.Desc})
	}
	items = append(items, extraItems...)
	rel = &Project{Input: rel, Items: items}

	// DISTINCT.
	if sel.Distinct {
		rel = &GroupBy{Input: rel, GroupCols: append([]ColumnID{}, outputIDs(items)...)}
	}

	// LIMIT.
	if sel.Limit != nil {
		rel = &Limit{Input: rel, N: *sel.Limit}
	}

	return &selectOut{rel: rel, resultCols: resultCols, resultNames: resultNames, ordering: ordering}, nil
}

func outputIDs(items []ProjectItem) []ColumnID {
	out := make([]ColumnID, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

func containsID(ids []ColumnID, id ColumnID) bool {
	for _, c := range ids {
		if c == id {
			return true
		}
	}
	return false
}

func containsItem(items []ProjectItem, id ColumnID) bool {
	for _, it := range items {
		if it.ID == id {
			return true
		}
	}
	return false
}

func passthroughItems(rel RelExpr) []ProjectItem {
	var items []ProjectItem
	rel.OutputCols().ForEach(func(c ColumnID) {
		items = append(items, ProjectItem{ID: c, Expr: &Col{ID: c}})
	})
	return items
}

func displayName(e sql.Expr) string {
	if cr, ok := e.(*sql.ColRef); ok {
		return cr.Name
	}
	if fc, ok := e.(*sql.FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return e.String()
}

// kindOf infers the datum kind a scalar produces (best effort, for metadata).
func kindOf(s Scalar, md *Metadata) datumKind {
	switch t := s.(type) {
	case *Col:
		return md.Column(t.ID).Kind
	case *Const:
		return t.Val.Kind()
	case *Arith:
		lk, rk := kindOf(t.L, md), kindOf(t.R, md)
		if lk == kindFloat || rk == kindFloat {
			return kindFloat
		}
		return lk
	case *Cmp, *And, *Or, *Not, *IsNull, *InList, *UDPRef:
		return kindBool
	case *Subquery:
		if t.Mode == SubScalar && t.Plan != nil {
			// First output column of the subplan.
			cols := t.Plan.OutputCols().Ordered()
			if len(cols) > 0 {
				return md.Column(cols[0]).Kind
			}
		}
		return kindBool
	}
	return kindNull
}

func (b *Builder) buildTableExpr(te sql.TableExpr, sc *scope, parent *scope) (RelExpr, error) {
	switch t := te.(type) {
	case *sql.TableName:
		return b.buildTableName(t, sc, parent)
	case *sql.JoinExpr:
		return b.buildJoin(t, sc, parent)
	case *sql.SubqueryTable:
		out, err := b.buildSelect(t.Select, parent)
		if err != nil {
			return nil, err
		}
		for i, id := range out.resultCols {
			sc.cols = append(sc.cols, scopeCol{binding: t.Alias, name: out.resultNames[i], id: id})
		}
		return out.rel, nil
	}
	return nil, fmt.Errorf("logical: unsupported table expression %T", te)
}

func (b *Builder) buildTableName(t *sql.TableName, sc *scope, parent *scope) (RelExpr, error) {
	if tab, ok := b.cat.Table(t.Name); ok {
		ids := b.md.AddTable(tab, t.Binding())
		for i, c := range tab.Cols {
			sc.cols = append(sc.cols, scopeCol{binding: t.Binding(), name: c.Name, id: ids[i]})
		}
		return &Scan{Table: tab, Binding: t.Binding(), Cols: ids}, nil
	}
	if v, ok := b.cat.View(t.Name); ok {
		def, err := sql.ParseSelect(v.SQL)
		if err != nil {
			return nil, fmt.Errorf("logical: view %s: %w", v.Name, err)
		}
		out, err := b.buildSelect(def, parent)
		if err != nil {
			return nil, fmt.Errorf("logical: view %s: %w", v.Name, err)
		}
		for i, id := range out.resultCols {
			sc.cols = append(sc.cols, scopeCol{binding: t.Binding(), name: out.resultNames[i], id: id})
		}
		return out.rel, nil
	}
	return nil, fmt.Errorf("logical: unknown table or view %q", t.Name)
}

func (b *Builder) buildJoin(t *sql.JoinExpr, sc *scope, parent *scope) (RelExpr, error) {
	left, err := b.buildTableExpr(t.Left, sc, parent)
	if err != nil {
		return nil, err
	}
	right, err := b.buildTableExpr(t.Right, sc, parent)
	if err != nil {
		return nil, err
	}
	var on []Scalar
	if t.On != nil {
		cond, err := b.buildScalar(t.On, sc)
		if err != nil {
			return nil, err
		}
		on = SplitConjunction(cond)
	}
	switch t.Kind {
	case sql.JoinInner, sql.JoinCross:
		return &Join{Kind: InnerJoin, Left: left, Right: right, On: on}, nil
	case sql.JoinLeftOuter:
		return &Join{Kind: LeftOuterJoin, Left: left, Right: right, On: on}, nil
	case sql.JoinRightOuter:
		// Normalize: A RIGHT JOIN B == B LEFT JOIN A.
		return &Join{Kind: LeftOuterJoin, Left: right, Right: left, On: on}, nil
	case sql.JoinFullOuter:
		return &Join{Kind: FullOuterJoin, Left: left, Right: right, On: on}, nil
	}
	return nil, fmt.Errorf("logical: unsupported join kind %v", t.Kind)
}

// buildScalar translates an AST expression in the given scope. Aggregates are
// rejected here; grouped contexts use buildGroupedScalar.
func (b *Builder) buildScalar(e sql.Expr, sc *scope) (Scalar, error) {
	if s, ok, err := b.structural(e, func(e sql.Expr) (Scalar, error) { return b.buildScalar(e, sc) }); ok {
		return s, err
	}
	switch t := e.(type) {
	case *sql.ColRef:
		if sc.ambiguous(t.Table, t.Name) {
			return nil, fmt.Errorf("logical: ambiguous column %q", t.String())
		}
		id, ok := sc.resolve(t.Table, t.Name)
		if !ok {
			return nil, fmt.Errorf("logical: unknown column %q", t.String())
		}
		return &Col{ID: id}, nil
	case *sql.BetweenExpr:
		inner, err := b.buildScalar(t.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := b.buildScalar(t.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := b.buildScalar(t.Hi, sc)
		if err != nil {
			return nil, err
		}
		rng := Scalar(&And{
			L: &Cmp{Op: CmpGe, L: inner, R: lo},
			R: &Cmp{Op: CmpLe, L: inner, R: hi},
		})
		if t.Negated {
			rng = &Not{E: rng}
		}
		return rng, nil
	case *sql.InExpr:
		inner, err := b.buildScalar(t.E, sc)
		if err != nil {
			return nil, err
		}
		if t.Sub == nil {
			list := make([]Scalar, len(t.List))
			for i, item := range t.List {
				list[i], err = b.buildScalar(item, sc)
				if err != nil {
					return nil, err
				}
			}
			return &InList{E: inner, List: list, Negated: t.Negated}, nil
		}
		sub, err := b.buildSubquery(t.Sub, sc)
		if err != nil {
			return nil, err
		}
		sub.Mode = SubIn
		sub.Scalar = inner
		sub.Negated = t.Negated
		return sub, nil
	case *sql.ExistsExpr:
		sub, err := b.buildSubquery(t.Sub, sc)
		if err != nil {
			return nil, err
		}
		sub.Mode = SubExists
		sub.Negated = t.Negated
		return sub, nil
	case *sql.SubqueryExpr:
		sub, err := b.buildSubquery(t.Sub, sc)
		if err != nil {
			return nil, err
		}
		sub.Mode = SubScalar
		return sub, nil
	case *sql.FuncCall:
		if t.IsAggregate() {
			return nil, fmt.Errorf("logical: aggregate %s not allowed here", t.Name)
		}
		if tpl, ok := b.udfs[t.Name]; ok {
			args := make([]Scalar, len(t.Args))
			for i, a := range t.Args {
				arg, err := b.buildScalar(a, sc)
				if err != nil {
					return nil, err
				}
				args[i] = arg
			}
			return &UDPRef{
				Name:         strings.ToLower(t.Name),
				Args:         args,
				PerTupleCost: tpl.perTupleCost,
				Selectivity:  tpl.selectivity,
				EvalFn:       tpl.fn,
			}, nil
		}
		return nil, fmt.Errorf("logical: unknown function %s", t.Name)
	}
	return nil, fmt.Errorf("logical: unsupported expression %T", e)
}

// buildSubquery builds a nested SELECT as a Subquery scalar; correlated
// references resolve through sc and are recorded as OuterCols.
func (b *Builder) buildSubquery(sel *sql.SelectStmt, sc *scope) (*Subquery, error) {
	// buildSelect chains the scope it creates to sc.
	out, err := b.buildSelect(sel, sc)
	if err != nil {
		return nil, err
	}
	// Outer references were recorded on sc's child scopes during the build;
	// recompute them as: columns referenced by the subplan that it does not
	// itself produce.
	free := FreeCols(out.rel)
	sub := &Subquery{Plan: out.rel, OuterCols: free}
	if len(out.resultCols) > 0 {
		sub.OutCol = out.resultCols[0]
	}
	return sub, nil
}

// FreeCols returns columns referenced but not produced within the tree.
func FreeCols(e RelExpr) ColSet {
	var produced, referenced ColSet
	VisitRel(e, func(n RelExpr) {
		switch t := n.(type) {
		case *Scan:
			produced = produced.Union(t.OutputCols())
		case *Values:
			produced = produced.Union(t.OutputCols())
		case *Project:
			for _, it := range t.Items {
				produced.Add(it.ID)
			}
		case *GroupBy:
			for _, a := range t.Aggs {
				produced.Add(a.ID)
			}
		case *Union:
			for _, c := range t.Cols {
				produced.Add(c)
			}
		}
		for _, s := range Scalars(n) {
			referenced = referenced.Union(ScalarCols(s))
		}
		if g, ok := n.(*GroupBy); ok {
			for _, c := range g.GroupCols {
				referenced.Add(c)
			}
		}
	})
	return referenced.Difference(produced)
}

// collectAggCalls gathers aggregate FuncCalls from the SELECT list, HAVING
// and ORDER BY.
func collectAggCalls(sel *sql.SelectStmt) []*sql.FuncCall {
	var out []*sql.FuncCall
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch t := e.(type) {
		case nil:
		case *sql.FuncCall:
			if t.IsAggregate() {
				out = append(out, t)
				return // no nested aggregates
			}
			for _, a := range t.Args {
				walk(a)
			}
		case *sql.BinExpr:
			walk(t.L)
			walk(t.R)
		case *sql.NotExpr:
			walk(t.E)
		case *sql.NegExpr:
			walk(t.E)
		case *sql.IsNullExpr:
			walk(t.E)
		case *sql.BetweenExpr:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *sql.InExpr:
			walk(t.E)
			for _, it := range t.List {
				walk(it)
			}
		}
	}
	for _, item := range sel.Select {
		walk(item.Expr)
	}
	walk(sel.Having)
	for _, oi := range sel.OrderBy {
		walk(oi.Expr)
	}
	return out
}

func rejectAggregates(e sql.Expr) error {
	var found *sql.FuncCall
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch t := e.(type) {
		case nil:
		case *sql.FuncCall:
			if t.IsAggregate() {
				found = t
			}
		case *sql.BinExpr:
			walk(t.L)
			walk(t.R)
		case *sql.NotExpr:
			walk(t.E)
		case *sql.NegExpr:
			walk(t.E)
		case *sql.IsNullExpr:
			walk(t.E)
		case *sql.BetweenExpr:
			walk(t.E)
			walk(t.Lo)
			walk(t.Hi)
		case *sql.InExpr:
			walk(t.E)
			for _, it := range t.List {
				walk(it)
			}
		}
	}
	walk(e)
	if found != nil {
		return fmt.Errorf("logical: aggregate %s not allowed in WHERE", found.Name)
	}
	return nil
}

func (b *Builder) buildAggItem(fc *sql.FuncCall, sc *scope) (AggItem, error) {
	var fn AggFn
	switch fc.Name {
	case "COUNT":
		fn = AggCount
	case "SUM":
		fn = AggSum
	case "AVG":
		fn = AggAvg
	case "MIN":
		fn = AggMin
	case "MAX":
		fn = AggMax
	default:
		return AggItem{}, fmt.Errorf("logical: unknown aggregate %s", fc.Name)
	}
	item := AggItem{Fn: fn, Distinct: fc.Distinct}
	var kind datumKind
	if fc.Star {
		if fn != AggCount {
			return AggItem{}, fmt.Errorf("logical: %s(*) is not valid", fc.Name)
		}
		kind = kindInt
	} else {
		if len(fc.Args) != 1 {
			return AggItem{}, fmt.Errorf("logical: %s expects one argument", fc.Name)
		}
		arg, err := b.buildScalar(fc.Args[0], sc)
		if err != nil {
			return AggItem{}, err
		}
		item.Arg = arg
		switch fn {
		case AggCount:
			kind = kindInt
		case AggAvg:
			kind = kindFloat
		default:
			kind = kindOf(arg, b.md)
		}
	}
	item.ID = b.md.AddColumn(ColumnMeta{Name: strings.ToLower(fc.Name), Kind: kind})
	return item, nil
}

// aggItemKey identifies semantically identical aggregates for dedup.
func aggItemKey(a AggItem) string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s|%v|%s", a.Fn, a.Distinct, arg)
}

// aggCallKey identifies the AST call with its built form so buildGroupedScalar
// can map the call to the aggregate's output column.
func aggCallKey(fc *sql.FuncCall, item AggItem) string {
	return "agg:" + fc.String()
}

// buildGroupedScalar builds an expression in the post-GROUP BY environment:
// aggregate calls and group-by expressions are replaced by column references,
// and an enclosing block's column is a constant within every group; any other
// column reference is an error (not functionally determined by the group).
func (b *Builder) buildGroupedScalar(e sql.Expr, sc *scope, post map[string]ColumnID) (Scalar, error) {
	// Aggregate call?
	if fc, ok := e.(*sql.FuncCall); ok && fc.IsAggregate() {
		if id, ok := post["agg:"+fc.String()]; ok {
			return &Col{ID: id}, nil
		}
		return nil, fmt.Errorf("logical: aggregate %s was not collected", fc)
	}
	// Whole expression equals a group-by expression?
	if built, err := b.buildScalar(e, sc); err == nil {
		if id, ok := post[built.String()]; ok {
			return &Col{ID: id}, nil
		}
		// A bare column of this block must be a grouping column.
		if c, ok := built.(*Col); ok {
			if !sc.local(c.ID) {
				return c, nil
			}
			return nil, fmt.Errorf("logical: column %s is not in GROUP BY", b.md.QualifiedName(c.ID))
		}
		// So must every column of this block a subquery reads.
		if sub, ok := built.(*Subquery); ok {
			grouped := true
			ScalarCols(sub).ForEach(func(c ColumnID) {
				grouped = grouped && (!sc.local(c) || post[(&Col{ID: c}).String()] == c)
			})
			if grouped {
				return sub, nil
			}
		}
	}
	// Recurse structurally.
	if s, ok, err := b.structural(e, func(e sql.Expr) (Scalar, error) { return b.buildGroupedScalar(e, sc, post) }); ok {
		return s, err
	}
	return nil, fmt.Errorf("logical: expression %s is not derivable from GROUP BY", e)
}

var (
	cmpOps = map[sql.BinOp]CmpOp{sql.OpEq: CmpEq, sql.OpNe: CmpNe, sql.OpLt: CmpLt, sql.OpLe: CmpLe,
		sql.OpGt: CmpGt, sql.OpGe: CmpGe, sql.OpLike: CmpLike}
	arithOps = map[sql.BinOp]ArithOp{sql.OpAdd: ArithAdd, sql.OpSub: ArithSub, sql.OpMul: ArithMul,
		sql.OpDiv: ArithDiv, sql.OpMod: ArithMod}
)

// structural builds the expressions both scalar builders build the same way
// from their operands, which rec builds — literals, parameters, operators,
// NOT, negation and IS NULL — and reports whether e is one.
func (b *Builder) structural(e sql.Expr, rec func(sql.Expr) (Scalar, error)) (Scalar, bool, error) {
	unary := func(x sql.Expr, mk func(Scalar) Scalar) (Scalar, bool, error) {
		inner, err := rec(x)
		if err != nil {
			return nil, true, err
		}
		return mk(inner), true, nil
	}
	switch t := e.(type) {
	case *sql.Lit:
		return &Const{Val: t.Val}, true, nil
	case *sql.Param:
		if t.Ord < 1 || t.Ord > len(b.params) {
			return nil, true, fmt.Errorf("logical: parameter $%d not bound (%d value(s) supplied)", t.Ord, len(b.params))
		}
		return &Const{Val: b.params[t.Ord-1], Param: t.Ord}, true, nil
	case *sql.BinExpr:
		l, err := rec(t.L)
		if err != nil {
			return nil, true, err
		}
		r, err := rec(t.R)
		if err != nil {
			return nil, true, err
		}
		if op, ok := cmpOps[t.Op]; ok {
			return &Cmp{Op: op, L: l, R: r}, true, nil
		}
		if op, ok := arithOps[t.Op]; ok {
			return &Arith{Op: op, L: l, R: r}, true, nil
		}
		switch t.Op {
		case sql.OpAnd:
			return &And{L: l, R: r}, true, nil
		case sql.OpOr:
			return &Or{L: l, R: r}, true, nil
		}
		return nil, true, fmt.Errorf("logical: unsupported operator %v", t.Op)
	case *sql.NotExpr:
		return unary(t.E, func(x Scalar) Scalar { return &Not{E: x} })
	case *sql.NegExpr:
		return unary(t.E, func(x Scalar) Scalar { return &Arith{Op: ArithSub, L: &Const{Val: zeroFor(kindOf(x, b.md))}, R: x} })
	case *sql.IsNullExpr:
		return unary(t.E, func(x Scalar) Scalar { return &IsNull{E: x, Negated: t.Negated} })
	}
	return nil, false, nil
}
