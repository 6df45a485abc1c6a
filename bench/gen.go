package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// sizes are the frozen row and statement counts of every workload. The
// benchmark always runs fullSizes; bench_test.go runs tinySizes so the same
// code paths finish in seconds.
type sizes struct {
	// oltp_prepared
	OLTPRows     int // acct rows
	OLTPBindings int // distinct binding vectors per template
	OLTPPassOps  int // statements in one client pass
	// adhoc_planning
	ChainRows       int // rows in each of the eight chain tables
	StarFactRows    int
	StarDimRows     int
	AdhocStatements int // distinct literal statements
	AdhocPassOps    int
	// analytic_mem / analytic_disk
	SalesRows      int
	DimRows        int
	AnalyticPasses int // distinct literal redraws of the class list
	// ingest_mixed
	IngestInitial int // rows loaded in set-up
	IngestBatch   int // rows per LoadRows call
	IngestBatches int // batches per cycle
	// SetupRepeats is how many times set-up runs; setup_s is the median.
	SetupRepeats int
}

var fullSizes = sizes{
	OLTPRows: 20000, OLTPBindings: 64, OLTPPassOps: 1000,
	ChainRows: 200, StarFactRows: 2000, StarDimRows: 40, AdhocStatements: 990, AdhocPassOps: 90,
	SalesRows: 100000, DimRows: 1000, AnalyticPasses: 3,
	IngestInitial: 20000, IngestBatch: 2048, IngestBatches: 32,
	SetupRepeats: 3,
}

// The adhoc tables keep their full size even here: on 40-row tables hash and
// merge joins tie in cost, the engine breaks such ties at random, and the
// replayed plan then differs from the engine's in more than join-input order.
var tinySizes = sizes{
	OLTPRows: 2000, OLTPBindings: 8, OLTPPassOps: 100,
	ChainRows: 200, StarFactRows: 2000, StarDimRows: 40, AdhocStatements: 60, AdhocPassOps: 30,
	SalesRows: 6000, DimRows: 50, AnalyticPasses: 2,
	IngestInitial: 2000, IngestBatch: 512, IngestBatches: 16,
	SetupRepeats: 1,
}

const (
	// adhocCycle is the length of adhoc_planning's fixed cycle of statement
	// shapes; AdhocStatements and AdhocPassOps are multiples of it.
	adhocCycle = 30

	ingestReadsPerBatch = 16
	ingestFlushEvery    = 8
	ingestAnalyzeEvery  = 16
)

// table is one generated table: its DDL and the rows set-up loads.
type table struct {
	name string
	ddl  []string
	rows [][]any
}

// stmt is one generated statement. The engine sees only text and args.
type stmt struct {
	id    int
	class string
	text  string
	args  []any // nil for literal statements
	// ordered marks a total ORDER BY: the fingerprint then depends on row
	// order, otherwise rows compare as a bag.
	ordered  bool
	subquery bool
	nrel     int    // relations joined
	want     uint64 // fingerprint the result must have (oracle or sentinel)
}

// corpus is everything a workload's generator produces from the seed.
type corpus struct {
	tables []table
	// stmts are the distinct statements, in id order.
	stmts []*stmt
	// passes are the closed-loop units: a client runs whole passes only, so
	// the class mix of every round is exact. Client c of n takes passes c,
	// c+n, ...
	passes [][]*stmt
	// warm is the untimed pass at the end of set-up.
	warm []*stmt
	// sentinels carry answers computed here in plain Go, independent of any
	// engine; they run once after set-up.
	sentinels []*stmt
	// batches (ingest_mixed only) are the LoadRows calls of one cycle;
	// passes[i] are the reads that follow batches[i].
	batches [][][]any
}

func (c *corpus) add(s *stmt) *stmt {
	s.id = len(c.stmts)
	c.stmts = append(c.stmts, s)
	return s
}

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// sentinel builds a statement whose single-row integer answer the generator
// already knows.
func sentinel(text string, vals ...int64) *stmt {
	row := make([]any, len(vals))
	for i, v := range vals {
		row[i] = v
	}
	return &stmt{class: "sentinel", text: text, ordered: true, want: fingerprint([][]any{row}, true), nrel: 1}
}

// --- oltp_prepared ---

var acctKinds = []string{"checking", "savings", "loan", "card", "broker"}

// oltpClients is the client count of oltp_prepared; the generator deals two
// distinct passes to each client.
const oltpClients = 2

func genOLTP(seed int64, sz sizes) *corpus {
	rng := newRand(seed, 1)
	n := sz.OLTPRows
	acct := table{name: "acct", ddl: []string{
		`CREATE TABLE acct (id INT NOT NULL, owner INT, branch INT, bal FLOAT, kind TEXT, PRIMARY KEY (id))`,
		`CREATE INDEX acct_owner ON acct (owner)`,
	}}
	var sumOwner int64
	for i := 0; i < n; i++ {
		owner, br := int64(rng.Intn(n/4)), int64(rng.Intn(100))
		acct.rows = append(acct.rows, []any{int64(i), owner, br, float64(rng.Intn(1000000)) / 100, acctKinds[rng.Intn(len(acctKinds))]})
		sumOwner += owner
	}
	branch := table{name: "branch", ddl: []string{
		`CREATE TABLE branch (id INT NOT NULL, name TEXT, region INT, PRIMARY KEY (id))`,
	}}
	for i := 0; i < 100; i++ {
		branch.rows = append(branch.rows, []any{int64(i), fmt.Sprintf("br%03d", i), int64(rng.Intn(8))})
	}
	c := &corpus{tables: []table{acct, branch}}
	c.sentinels = []*stmt{
		sentinel(`SELECT COUNT(*) FROM acct`, int64(n)),
		sentinel(`SELECT SUM(owner) FROM acct`, sumOwner),
		sentinel(`SELECT MAX(id), COUNT(*) FROM branch`, 99, 100),
	}

	// Six templates. weight sets the mix so that p50 and p95 of the pass fall
	// inside one template's latency distribution, not on the gap between two.
	type template struct {
		class, text string
		weight      int
		ordered     bool
		nrel        int
		bind        func() []any
	}
	id := func() int64 { return int64(rng.Intn(n)) }
	templates := []template{
		{"pk_point", `SELECT id, owner, bal FROM acct WHERE id = ?`, 7, true, 1,
			func() []any { return []any{id()} }},
		{"index_lookup", `SELECT id, bal FROM acct WHERE owner = ? ORDER BY id`, 5, true, 1,
			func() []any { return []any{int64(rng.Intn(n / 4))} }},
		{"short_range", `SELECT id, bal FROM acct WHERE id >= ? AND id < ? ORDER BY id`, 2, true, 1,
			func() []any { lo := id(); return []any{lo, lo + 20} }},
		{"row_aggregate", `SELECT COUNT(*), SUM(bal) FROM acct WHERE id >= ? AND id < ?`, 2, true, 1,
			func() []any { lo := id(); return []any{lo, lo + 50} }},
		{"pk_join", `SELECT a.id, a.bal, b.name FROM acct a, branch b WHERE a.branch = b.id AND a.id = ?`, 2, true, 2,
			func() []any { return []any{id()} }},
		{"small_groupby", `SELECT kind, COUNT(*) FROM acct WHERE id >= ? AND id < ? GROUP BY kind ORDER BY kind`, 2, true, 1,
			func() []any { lo := id(); return []any{lo, lo + 100} }},
	}
	var byTemplate [][]*stmt
	var wheel []int
	for ti, t := range templates {
		var ss []*stmt
		for b := 0; b < sz.OLTPBindings; b++ {
			ss = append(ss, c.add(&stmt{class: t.class, text: t.text, args: t.bind(), ordered: t.ordered, nrel: t.nrel}))
		}
		byTemplate = append(byTemplate, ss)
		for w := 0; w < t.weight; w++ {
			wheel = append(wheel, ti)
		}
	}
	c.warm = c.stmts
	// Two distinct passes per client; the template order follows the wheel
	// exactly, only the bindings are drawn.
	for p := 0; p < 2*oltpClients; p++ {
		pass := make([]*stmt, sz.OLTPPassOps)
		for i := range pass {
			ss := byTemplate[wheel[i%len(wheel)]]
			pass[i] = ss[rng.Intn(len(ss))]
		}
		c.passes = append(c.passes, pass)
	}
	return c
}

// --- adhoc_planning ---

func genAdhoc(seed int64, sz sizes) *corpus {
	rng := newRand(seed, 2)
	c := &corpus{}
	n := sz.ChainRows
	var sumPayload int64
	for t := 1; t <= 8; t++ {
		tab := table{name: fmt.Sprintf("c%d", t), ddl: []string{
			fmt.Sprintf(`CREATE TABLE c%d (pk INT NOT NULL, fk INT, payload INT, grp INT, PRIMARY KEY (pk))`, t),
			fmt.Sprintf(`CREATE INDEX c%d_fk ON c%d (fk)`, t, t),
		}}
		for i := 0; i < n; i++ {
			payload := int64(rng.Intn(1000))
			tab.rows = append(tab.rows, []any{int64(i), int64(rng.Intn(n)), payload, int64(rng.Intn(8))})
			if t == 1 {
				sumPayload += payload
			}
		}
		c.tables = append(c.tables, tab)
	}
	fact := table{name: "f", ddl: []string{
		`CREATE TABLE f (id INT NOT NULL, a INT, b INT, c INT, v INT, PRIMARY KEY (id))`,
		`CREATE INDEX f_a ON f (a)`,
	}}
	var sumV int64
	for i := 0; i < sz.StarFactRows; i++ {
		v := int64(rng.Intn(1000))
		fact.rows = append(fact.rows, []any{int64(i), int64(rng.Intn(sz.StarDimRows)), int64(rng.Intn(sz.StarDimRows)), int64(rng.Intn(sz.StarDimRows)), v})
		sumV += v
	}
	c.tables = append(c.tables, fact)
	for _, d := range []string{"da", "db", "dc"} {
		tab := table{name: d, ddl: []string{fmt.Sprintf(`CREATE TABLE %s (k INT NOT NULL, attr TEXT, filt INT, PRIMARY KEY (k))`, d)}}
		for i := 0; i < sz.StarDimRows; i++ {
			tab.rows = append(tab.rows, []any{int64(i), fmt.Sprintf("%s_%02d", d, i%7), int64(rng.Intn(10))})
		}
		c.tables = append(c.tables, tab)
	}
	c.sentinels = []*stmt{
		sentinel(`SELECT COUNT(*) FROM c1`, int64(n)),
		sentinel(`SELECT SUM(payload) FROM c1`, sumPayload),
		sentinel(`SELECT SUM(v), COUNT(*) FROM f`, sumV, int64(sz.StarFactRows)),
	}

	// The shape of statement i is fixed by i alone (adhocShapes cycles), so
	// every seed plans the same mix of join widths; the seed draws only the
	// tables a chain starts at and the literals.
	chain := func(k, variant int, extra bool) *stmt {
		s := 1 + rng.Intn(8-k+1)
		e := s + k - 1
		var from, where []string
		for t := s; t <= e; t++ {
			from = append(from, fmt.Sprintf("c%d", t))
			if t < e {
				where = append(where, fmt.Sprintf("c%d.fk = c%d.pk", t, t+1))
			}
		}
		where = append(where, fmt.Sprintf("c%d.payload < %d", s, 50+rng.Intn(350)))
		if extra {
			where = append(where, fmt.Sprintf("c%d.grp <> %d", e, rng.Intn(8)))
		}
		st := &stmt{nrel: k}
		tail := strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
		switch variant {
		case 0:
			st.class = "chain"
			st.text = fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM %s", s, e, tail)
		case 1:
			st.class = "chain_groupby"
			st.text = fmt.Sprintf("SELECT c%d.grp, COUNT(*), SUM(c%d.payload) FROM %s GROUP BY c%d.grp", s, e, tail, s)
		default:
			// Every fk has exactly one partner, so c<s>.pk is unique in the
			// output and the order is total.
			st.class, st.ordered = "chain_orderby", true
			st.text = fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM %s ORDER BY c%d.pk", s, e, tail, s)
		}
		return st
	}
	star := func(ndims int) *stmt {
		dims := []string{"da", "db", "dc"}[:ndims]
		from, where := []string{"f"}, []string{fmt.Sprintf("f.v < %d", 100+rng.Intn(800))}
		for i, d := range dims {
			from = append(from, d)
			where = append(where, fmt.Sprintf("f.%c = %s.k", 'a'+i, d))
		}
		where = append(where, fmt.Sprintf("da.filt < %d", 1+rng.Intn(9)))
		return &stmt{class: "star", nrel: 1 + ndims, text: fmt.Sprintf(
			"SELECT da.attr, COUNT(*), SUM(f.v) FROM %s WHERE %s GROUP BY da.attr",
			strings.Join(from, ", "), strings.Join(where, " AND "))}
	}
	subquery := func(exists bool) *stmt {
		s := 1 + rng.Intn(6)
		a, b := 50+rng.Intn(350), 100+rng.Intn(800)
		st := &stmt{class: "subquery", subquery: true, nrel: 3}
		if exists {
			st.text = fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM c%d, c%d WHERE c%d.fk = c%d.pk AND c%d.payload < %d AND EXISTS (SELECT 1 FROM c%d WHERE c%d.pk = c%d.fk AND c%d.payload < %d)",
				s, s+1, s, s+1, s, s+1, s, a, s+2, s+2, s+1, s+2, b)
		} else {
			st.text = fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM c%d, c%d WHERE c%d.fk = c%d.pk AND c%d.payload < %d AND c%d.fk IN (SELECT c%d.pk FROM c%d WHERE c%d.payload < %d)",
				s, s+1, s, s+1, s, s+1, s, a, s+1, s+2, s+2, s+2, b)
		}
		return st
	}
	seen := map[string]bool{}
	for i := 0; len(c.stmts) < sz.AdhocStatements; {
		var st *stmt
		// A cycle of adhocCycle shapes: 18 chains (widths 2..7 in the three
		// variants), 9 stars (1..3 dimensions), 3 subqueries (10%).
		switch shape := i % adhocCycle; {
		case shape < 18:
			st = chain(2+shape%6, shape/6, (i/adhocCycle)%2 == 1)
		case shape < 27:
			st = star(1 + shape%3)
		default:
			st = subquery(shape%2 == 1)
		}
		if seen[st.text] {
			continue // redraw the literals of the same shape
		}
		seen[st.text] = true
		c.add(st)
		i++
	}
	for lo := 0; lo < len(c.stmts); lo += sz.AdhocPassOps {
		hi := lo + sz.AdhocPassOps
		if hi > len(c.stmts) {
			hi = len(c.stmts)
		}
		c.passes = append(c.passes, c.stmts[lo:hi])
	}
	c.warm = c.passes[0]
	return c
}

// --- analytic_mem / analytic_disk ---

var regions = []string{"north", "south", "east", "west", "central", "apac", "emea", "latam"}

func genAnalytic(seed int64, sz sizes) *corpus {
	rng := newRand(seed, 3)
	n, nd := sz.SalesRows, sz.DimRows
	sales := table{name: "sales", ddl: []string{
		`CREATE TABLE sales (id INT NOT NULL, k1 INT, k2 INT, k3 INT, cust INT, region TEXT, qty INT, amount FLOAT, PRIMARY KEY (id))`,
		// The only secondary index is on a column no join uses: with an index
		// on a join key the optimizer picks an index nested-loop join into
		// sales, which on disk under a small column cache re-decodes segments
		// per probe (849 MB read, 4.6 s for one star_3dim while sizing).
		`CREATE INDEX sales_cust ON sales (cust)`,
	}}
	var sumQty, east int64
	for i := 0; i < n; i++ {
		qty, reg := int64(1+rng.Intn(20)), regions[rng.Intn(len(regions))]
		// k3 follows id, so it is run-length friendly and zone maps can
		// prune on it; k1 and k2 are uniform.
		sales.rows = append(sales.rows, []any{int64(i), int64(rng.Intn(nd)), int64(rng.Intn(nd)), int64(i * nd / n), int64(rng.Intn(n / 100)), reg, qty, float64(rng.Intn(100000)) / 100})
		sumQty += qty
		if reg == "east" {
			east++
		}
	}
	c := &corpus{tables: []table{sales}}
	for d := 1; d <= 3; d++ {
		tab := table{name: fmt.Sprintf("dim%d", d), ddl: []string{fmt.Sprintf(`CREATE TABLE dim%d (k INT NOT NULL, attr TEXT, filt INT, PRIMARY KEY (k))`, d)}}
		for i := 0; i < nd; i++ {
			tab.rows = append(tab.rows, []any{int64(i), fmt.Sprintf("d%d_%03d", d, i%50), int64(rng.Intn(10))})
		}
		c.tables = append(c.tables, tab)
	}
	c.sentinels = []*stmt{
		sentinel(`SELECT COUNT(*) FROM sales`, int64(n)),
		sentinel(`SELECT SUM(qty) FROM sales`, sumQty),
		sentinel(`SELECT COUNT(*) FROM sales WHERE region = 'east'`, east),
	}

	// Literals that set how much work a statement does (a range predicate's
	// selectivity) are fixed per occurrence, so every pass and every seed
	// costs the same; the seed redraws only literals that do not change the
	// work: which region, which key, where a fixed-width range starts.
	// The weights place p50 of the pass inside string_filter and p95 inside
	// star_3dim on both analytic workloads (their classes sort differently
	// by latency), never on the gap between two classes, where it would
	// jump with the smallest change.
	type class struct {
		name    string
		weight  int
		ordered bool
		nrel    int
		text    func(occ int) string // occ counts the class's uses in a pass
	}
	classes := []class{
		{"filter_agg", 1, false, 1, func(int) string {
			return `SELECT COUNT(*), SUM(amount) FROM sales WHERE qty > 10 AND k2 <> ` + fmt.Sprint(rng.Intn(nd))
		}},
		{"string_filter", 6, false, 1, func(int) string {
			return fmt.Sprintf(`SELECT COUNT(*), SUM(qty) FROM sales WHERE region = '%s'`, regions[rng.Intn(len(regions))])
		}},
		{"groupby_low_ndv", 1, false, 1, func(int) string {
			return `SELECT region, COUNT(*), SUM(amount) FROM sales WHERE qty <= 16 AND k2 <> ` + fmt.Sprint(rng.Intn(nd)) + ` GROUP BY region`
		}},
		{"groupby_1000", 1, false, 1, func(int) string {
			return `SELECT k1, COUNT(*), SUM(amount) FROM sales WHERE qty > 3 AND k2 <> ` + fmt.Sprint(rng.Intn(nd)) + ` GROUP BY k1`
		}},
		{"pk_range", 3, false, 1, func(int) string {
			lo := rng.Intn(n - n/30)
			return fmt.Sprintf(`SELECT COUNT(*), SUM(amount) FROM sales WHERE id >= %d AND id < %d`, lo, lo+n/30)
		}},
		{"index_lookup", 3, true, 1, func(int) string {
			return fmt.Sprintf(`SELECT id, amount FROM sales WHERE cust = %d ORDER BY id`, rng.Intn(n/100))
		}},
		{"star_1dim", 1, false, 2, func(int) string {
			return `SELECT d.attr, SUM(s.amount) FROM sales s, dim1 d WHERE s.k1 = d.k AND d.filt < 5 AND s.k2 <> ` + fmt.Sprint(rng.Intn(nd)) + ` GROUP BY d.attr`
		}},
		{"star_3dim", 2, false, 4, func(occ int) string {
			return fmt.Sprintf(`SELECT d1.filt, d2.filt, d3.filt, SUM(s.amount) FROM sales s, dim1 d1, dim2 d2, dim3 d3 WHERE s.k1 = d1.k AND s.k2 = d2.k AND s.k3 = d3.k AND d1.filt < %d AND s.cust <> %d GROUP BY d1.filt, d2.filt, d3.filt`, 3+occ, rng.Intn(n/100))
		}},
		{"topn", 1, true, 1, func(int) string {
			return fmt.Sprintf(`SELECT id, amount FROM sales WHERE qty = %d ORDER BY amount DESC, id LIMIT 10`, 1+rng.Intn(20))
		}},
		{"having", 1, false, 1, func(int) string {
			return fmt.Sprintf(`SELECT k2, SUM(amount) FROM sales GROUP BY k2 HAVING SUM(amount) > %d`, (n/nd)*(480+rng.Intn(40)))
		}},
		{"clustered_range_agg", 2, false, 1, func(int) string {
			lo := rng.Intn(nd - nd/10)
			return fmt.Sprintf(`SELECT MIN(amount), MAX(amount), AVG(qty) FROM sales WHERE k3 >= %d AND k3 < %d`, lo, lo+nd/10)
		}},
		{"groupby_two_keys", 1, false, 1, func(int) string {
			return `SELECT region, qty, COUNT(*) FROM sales WHERE amount < 150.5 AND k2 <> ` + fmt.Sprint(rng.Intn(nd)) + ` GROUP BY region, qty`
		}},
	}
	for p := 0; p < sz.AnalyticPasses; p++ {
		var pass []*stmt
		// Interleave by weight rounds so heavy and light classes alternate.
		for w := 0; w < 6; w++ {
			for _, cl := range classes {
				if w < cl.weight {
					pass = append(pass, c.add(&stmt{class: cl.name, text: cl.text(w), ordered: cl.ordered, nrel: cl.nrel}))
				}
			}
		}
		c.passes = append(c.passes, pass)
	}
	c.warm = c.passes[0]
	return c
}

// --- ingest_mixed ---

var evKinds = []string{"open", "click", "view", "buy", "close", "error"}

func genIngest(seed int64, sz sizes) *corpus {
	rng := newRand(seed, 4)
	row := func(id int) []any {
		return []any{int64(id), int64(rng.Intn(500)), evKinds[rng.Intn(len(evKinds))], int64(rng.Intn(1000)), float64(rng.Intn(100000)) / 100}
	}
	ev := table{name: "ev", ddl: []string{
		`CREATE TABLE ev (id INT NOT NULL, dev INT, kind TEXT, val INT, amt FLOAT, PRIMARY KEY (id))`,
	}}
	var sumVal int64
	next := 0
	for ; next < sz.IngestInitial; next++ {
		r := row(next)
		sumVal += r[3].(int64)
		ev.rows = append(ev.rows, r)
	}
	c := &corpus{tables: []table{ev}}
	c.sentinels = []*stmt{
		sentinel(`SELECT COUNT(*) FROM ev`, int64(next)),
		sentinel(`SELECT SUM(val) FROM ev`, sumVal),
		sentinel(`SELECT MIN(id), MAX(id) FROM ev`, 0, int64(next-1)),
	}
	const (
		point  = `SELECT id, dev, val FROM ev WHERE id = ?`
		ranged = `SELECT id, val FROM ev WHERE id >= ? AND id < ? ORDER BY id`
		agg    = `SELECT COUNT(*), SUM(val) FROM ev WHERE val < ?`
		group  = `SELECT kind, COUNT(*), SUM(amt) FROM ev WHERE dev < ? GROUP BY kind`
	)
	for b := 0; b < sz.IngestBatches; b++ {
		batch := make([][]any, sz.IngestBatch)
		for i := range batch {
			batch[i] = row(next)
			next++
		}
		c.batches = append(c.batches, batch)
		newest := func() int64 { return int64(next - 1 - rng.Intn(sz.IngestBatch)) }
		// 6 point + 4 range reads over the newest ids, 6 whole-table
		// aggregates: p50 falls among the cheap reads, p95 among the scans.
		// The scans' literals are fixed per slot, so their selectivity, and
		// with it the work at each table size, is the same for every seed.
		var reads []*stmt
		for i := 0; i < ingestReadsPerBatch; i++ {
			var s *stmt
			switch {
			case i%8 < 3:
				s = &stmt{class: "newest_point", text: point, args: []any{newest()}, ordered: true}
			case i%8 < 5:
				hi := newest() + 1
				s = &stmt{class: "newest_range", text: ranged, args: []any{hi - 32, hi}, ordered: true}
			case i%8 < 7:
				s = &stmt{class: "table_agg", text: agg, args: []any{int64(100 + 50*i)}}
			default:
				s = &stmt{class: "table_groupby", text: group, args: []any{int64(20 * i)}}
			}
			s.nrel = 1
			reads = append(reads, c.add(s))
		}
		c.passes = append(c.passes, reads)
	}
	// Set-up warms each template once against the initial rows.
	c.warm = []*stmt{
		c.add(&stmt{class: "newest_point", text: point, args: []any{int64(sz.IngestInitial - 1)}, ordered: true, nrel: 1}),
		c.add(&stmt{class: "newest_range", text: ranged, args: []any{int64(sz.IngestInitial - 32), int64(sz.IngestInitial)}, ordered: true, nrel: 1}),
		c.add(&stmt{class: "table_agg", text: agg, args: []any{int64(500)}, nrel: 1}),
		c.add(&stmt{class: "table_groupby", text: group, args: []any{int64(250)}, nrel: 1}),
	}
	return c
}
