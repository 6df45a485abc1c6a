package systemr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/workload"
)

// adhocDB builds the schema of the standing benchmark's adhoc_planning
// workload (bench/gen.go genAdhoc): eight chain tables c1..c8(pk, fk,
// payload, grp) with a clustered primary key and an fk index, and a star of
// f(id, a, b, c, v) with three dimensions da/db/dc(k, attr, filt). rows sizes
// the chain tables; the fact table has ten times as many, the dimensions 40.
func adhocDB(rows int) *workload.DB {
	db := workload.NewDB()
	rng := rand.New(rand.NewSource(7))
	intCols := func(names ...string) []catalog.Column {
		cols := make([]catalog.Column, len(names))
		for i, n := range names {
			cols[i] = catalog.Column{Name: n, Kind: datum.KindInt, NotNull: i == 0}
		}
		return cols
	}
	pkey := func(name string) *catalog.Index {
		return &catalog.Index{Name: name + "_pkey", Cols: []int{0}, Unique: true, Clustered: true}
	}
	insert := func(t *catalog.Table, n int, row func(i int) datum.Row) {
		st := db.MustAddTable(t)
		for i := 0; i < n; i++ {
			if err := st.Insert(row(i)); err != nil {
				panic(err)
			}
		}
	}
	for t := 1; t <= 8; t++ {
		name := fmt.Sprintf("c%d", t)
		insert(&catalog.Table{
			Name: name, Cols: intCols("pk", "fk", "payload", "grp"), PrimaryKey: []int{0},
			Indexes: []*catalog.Index{pkey(name), {Name: name + "_fk", Cols: []int{1}}},
		}, rows, func(i int) datum.Row {
			return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(rng.Intn(rows))),
				datum.NewInt(int64(rng.Intn(1000))), datum.NewInt(int64(rng.Intn(8)))}
		})
	}
	const dimRows = 40
	insert(&catalog.Table{
		Name: "f", Cols: intCols("id", "a", "b", "c", "v"), PrimaryKey: []int{0},
		Indexes: []*catalog.Index{pkey("f"), {Name: "f_a", Cols: []int{1}}},
	}, 10*rows, func(i int) datum.Row {
		return datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(rng.Intn(dimRows))),
			datum.NewInt(int64(rng.Intn(dimRows))), datum.NewInt(int64(rng.Intn(dimRows))), datum.NewInt(int64(rng.Intn(1000)))}
	})
	for _, d := range []string{"da", "db", "dc"} {
		d := d
		insert(&catalog.Table{
			Name: d, PrimaryKey: []int{0}, Indexes: []*catalog.Index{pkey(d)},
			Cols: []catalog.Column{{Name: "k", Kind: datum.KindInt, NotNull: true}, {Name: "attr", Kind: datum.KindString}, {Name: "filt", Kind: datum.KindInt}},
		}, dimRows, func(i int) datum.Row {
			return datum.Row{datum.NewInt(int64(i)), datum.NewString(fmt.Sprintf("%s_%02d", d, i%7)), datum.NewInt(int64(rng.Intn(10)))}
		})
	}
	db.Analyze(stats.AnalyzeOptions{})
	return db
}

// adhocChain is the text of a k-table chain statement starting at table
// c<s>; orderBy adds the chain_orderby variant's ORDER BY.
func adhocChain(s, k, lit int, orderBy bool) string {
	e := s + k - 1
	q := fmt.Sprintf("SELECT c%d.pk, c%d.payload FROM c%d", s, e, s)
	for t := s + 1; t <= e; t++ {
		q += fmt.Sprintf(", c%d", t)
	}
	q += fmt.Sprintf(" WHERE c%d.payload < %d", s, lit)
	for t := s; t < e; t++ {
		q += fmt.Sprintf(" AND c%d.fk = c%d.pk", t, t+1)
	}
	if orderBy {
		q += fmt.Sprintf(" ORDER BY c%d.pk", s)
	}
	return q
}

// adhocStar is the text of a star statement over ndims dimensions.
func adhocStar(ndims, lit int) string {
	q, where := "SELECT da.attr, COUNT(*), SUM(f.v) FROM f", fmt.Sprintf(" WHERE f.v < %d AND da.filt < 5", lit)
	for i, d := range []string{"da", "db", "dc"}[:ndims] {
		q += ", " + d
		where += fmt.Sprintf(" AND f.%c = %s.k", 'a'+i, d)
	}
	return q + where + " GROUP BY da.attr"
}

// planQuery runs a statement through the engine's pipeline up to the
// optimizer: parse, build, normalize, the rewrite passes, prune.
func planQuery(tb testing.TB, db *workload.DB, text string) *logical.Query {
	tb.Helper()
	sel, err := sql.ParseSelect(text)
	if err != nil {
		tb.Fatalf("parse %q: %v", text, err)
	}
	q, err := logical.NewBuilder(db.Cat).Build(sel)
	if err != nil {
		tb.Fatalf("build %q: %v", text, err)
	}
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	rewrite.UnnestSubqueries(q)
	rewrite.AssociateJoinOuterjoin(q)
	rewrite.MovePredicates(q)
	rewrite.PushDownGroupBy(q)
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	logical.PruneColumns(q)
	return q
}

var benchPlan physical.Plan

// benchOptimize times one Optimize call — a fresh Estimator and Optimizer per
// statement, as the engine builds them — on an already built query.
func benchOptimize(b *testing.B, text string) {
	q := planQuery(b, adhocDB(200), text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := optimizer(q, DefaultOptions()).Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = plan
	}
}

func BenchmarkOptimizeChain7(b *testing.B) { benchOptimize(b, adhocChain(1, 7, 200, false)) }

func BenchmarkOptimizeChainOrderBy7(b *testing.B) { benchOptimize(b, adhocChain(2, 7, 200, true)) }

func BenchmarkOptimizeStar4(b *testing.B) { benchOptimize(b, adhocStar(3, 500)) }

func BenchmarkOptimizeSubquery3(b *testing.B) {
	benchOptimize(b, `SELECT c1.pk, c2.payload FROM c1, c2 WHERE c1.fk = c2.pk AND c1.payload < 200
		AND EXISTS (SELECT 1 FROM c3 WHERE c3.pk = c2.fk AND c3.payload < 500)`)
}
