// Command matviews demonstrates answering queries using materialized views
// (§7.3): exact matches, rollups over coarser groupings, and the cost-based
// choice between base tables and views.
package main

import (
	"fmt"
	"math/rand"

	queryopt "repro"
)

func main() {
	eng := queryopt.New(queryopt.Options{UseMaterializedViews: true})
	eng.MustExec(`CREATE TABLE sales (day INT, product INT, region INT, amount FLOAT)`)
	rng := rand.New(rand.NewSource(11))
	var rows [][]any
	for i := 0; i < 60000; i++ {
		rows = append(rows, []any{rng.Intn(365), rng.Intn(40), rng.Intn(8), float64(rng.Intn(50000)) / 100})
	}
	if err := eng.LoadRows("sales", rows); err != nil {
		panic(err)
	}
	eng.MustExec("ANALYZE")

	fmt.Println("== create a daily-by-product summary ==")
	eng.MustExec(`CREATE MATERIALIZED VIEW daily_product AS
		SELECT s.day AS day, s.product AS product, COUNT(*) AS cnt, SUM(s.amount) AS amt
		FROM sales s GROUP BY s.day, s.product`)
	eng.MustExec("ANALYZE daily_product")

	queries := []struct {
		label string
		sql   string
	}{
		{"exact grouping match", `SELECT s.day, s.product, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.day, s.product`},
		{"rollup to day", `SELECT s.day, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.day`},
		{"rollup to product", `SELECT s.product, SUM(s.amount) FROM sales s GROUP BY s.product`},
		{"not answerable (region)", `SELECT s.region, SUM(s.amount) FROM sales s GROUP BY s.region`},
	}
	for _, q := range queries {
		res, err := eng.Exec(q.sql)
		if err != nil {
			panic(err)
		}
		used := res.UsedMaterializedView
		if used == "" {
			used = "(base table)"
		}
		fmt.Printf("%-26s -> answered from %-15s rows=%-6d rows processed=%-6d est cost=%.1f\n",
			q.label, used, len(res.Rows), res.Stats.RowsProcessed, res.EstCost)
	}

	fmt.Println("\n== the same rollup without the view ==")
	plain := queryopt.New(queryopt.Options{})
	plain.MustExec(`CREATE TABLE sales (day INT, product INT, region INT, amount FLOAT)`)
	if err := plain.LoadRows("sales", rows); err != nil {
		panic(err)
	}
	plain.MustExec("ANALYZE")
	res, err := plain.Exec(`SELECT s.day, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.day`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("base-table rollup: rows processed=%d, est cost=%.1f\n", res.Stats.RowsProcessed, res.EstCost)
	withView, err := eng.Exec(`SELECT s.day, COUNT(*), SUM(s.amount) FROM sales s GROUP BY s.day`)
	if err != nil {
		panic(err)
	}
	fmt.Printf("view-based rollup: rows processed=%d, est cost=%.1f  (%.0fx fewer rows processed)\n",
		withView.Stats.RowsProcessed, withView.EstCost,
		float64(res.Stats.RowsProcessed)/float64(max(withView.Stats.RowsProcessed, 1)))
}
