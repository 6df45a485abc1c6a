package qgm

import (
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/workload"
)

// BenchmarkOptimizeRewritePhase times the rewrite phase the engine runs per
// statement — Rewrites.Run from the built query to the rewritten one — over
// 2- to 7-way chain joins with a literal predicate (the adhoc_planning
// shape), a join with an EXISTS subquery and a three-dimension star that
// groups an INT SUM and a COUNT. Building is not timed: the queries are
// built in batches with the timer stopped.
func BenchmarkOptimizeRewritePhase(b *testing.B) {
	chain := workload.Chain(workload.ChainConfig{Tables: 7, RowsPer: []int{1, 1, 1, 1, 1, 1, 1}})
	star := workload.Star(workload.StarConfig{FactRows: 1, DimRows: []int{1, 1, 1}})
	type stmt struct {
		name string
		db   *workload.DB
		text string
	}
	var stmts []stmt
	for n := 2; n <= 7; n++ {
		stmts = append(stmts, stmt{fmt.Sprintf("join%d", n), chain, workload.ChainQuery(n) + " AND r1.payload < 200"})
	}
	stmts = append(stmts,
		stmt{"subquery", chain, `SELECT r1.pk, r2.payload FROM r1, r2 WHERE r1.fk = r2.pk AND r1.payload < 200
			AND EXISTS (SELECT 1 FROM r3 WHERE r3.pk = r2.fk AND r3.payload < 500)`},
		stmt{"star", star, `SELECT dim1.attr, COUNT(*), SUM(sales.qty) FROM sales, dim1, dim2, dim3
			WHERE sales.k1 = dim1.k AND sales.k2 = dim2.k AND sales.k3 = dim3.k AND dim1.filt < 5 GROUP BY dim1.attr`},
	)
	for _, s := range stmts {
		b.Run(s.name, func(b *testing.B) {
			sel, err := sql.ParseSelect(s.text)
			if err != nil {
				b.Fatal(err)
			}
			qs := make([]*logical.Query, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(qs) {
				b.StopTimer()
				n := min(len(qs), b.N-i)
				for k := range qs[:n] {
					if qs[k], err = logical.NewBuilder(s.db.Cat).Build(sel); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, q := range qs[:n] {
					Rewrites.Run(q)
				}
			}
		})
	}
}
