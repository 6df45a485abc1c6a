// Command analytics runs a decision-support (OLAP) scenario on a star
// schema — the workload the paper's §4.1.1 discusses. It shows eager
// aggregation (group-by pushdown) at work and compares the three optimizer
// architectures on the same query. The query sums the INT qty column: a
// FLOAT sum such as SUM(f.amount) is never staged, since adding partial sums
// already rounded to float64 would round the answer twice.
package main

import (
	"fmt"
	"math/rand"

	queryopt "repro"
)

func buildStar(opts queryopt.Options) *queryopt.Engine {
	eng := queryopt.New(opts)
	eng.MustExec(`CREATE TABLE sales (k1 INT, k2 INT, qty INT, amount FLOAT)`)
	eng.MustExec(`CREATE TABLE dim_product (k INT NOT NULL, pname VARCHAR, category INT, PRIMARY KEY (k))`)
	eng.MustExec(`CREATE TABLE dim_store (k INT NOT NULL, city VARCHAR, region INT, PRIMARY KEY (k))`)
	eng.MustExec(`CREATE INDEX sales_k1 ON sales (k1)`)
	eng.MustExec(`CREATE INDEX sales_k2 ON sales (k2)`)

	rng := rand.New(rand.NewSource(42))
	var fact [][]any
	for i := 0; i < 40000; i++ {
		fact = append(fact, []any{rng.Intn(200), rng.Intn(50), 1 + rng.Intn(10), float64(rng.Intn(100000)) / 100})
	}
	must(eng.LoadRows("sales", fact))
	var products [][]any
	for k := 0; k < 200; k++ {
		products = append(products, []any{k, fmt.Sprintf("product%03d", k), k % 12})
	}
	must(eng.LoadRows("dim_product", products))
	var stores [][]any
	cities := []string{"Denver", "Austin", "Boston", "Seattle"}
	for k := 0; k < 50; k++ {
		stores = append(stores, []any{k, cities[k%len(cities)], k % 4})
	}
	must(eng.LoadRows("dim_store", stores))
	eng.MustExec("ANALYZE")
	return eng
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	query := `SELECT s.city, SUM(f.qty), COUNT(*)
	          FROM sales f, dim_store s
	          WHERE f.k2 = s.k
	          GROUP BY s.city ORDER BY s.city`

	fmt.Println("== the decision-support query ==")
	fmt.Println(query)

	fmt.Println("\n== optimizer architecture comparison ==")
	for _, kind := range []queryopt.OptimizerKind{queryopt.SystemR, queryopt.Starburst, queryopt.Cascades} {
		eng := buildStar(queryopt.Options{Optimizer: kind})
		res, err := eng.Exec(query)
		must(err)
		fmt.Printf("--- %v: est cost %.1f, rows processed %d, hash operations %d\n",
			kind, res.EstCost, res.Stats.RowsProcessed, res.Stats.HashOps)
		fmt.Println(res.Plan)
	}

	fmt.Println("== eager aggregation (group-by pushdown, Fig. 4) ==")
	with := buildStar(queryopt.Options{})
	without := buildStar(queryopt.Options{DisableRewrites: true})
	rw, err := with.Exec(query)
	must(err)
	ro, err := without.Exec(query)
	must(err)
	fmt.Printf("%-28s %15s %15s\n", "", "rows processed", "hash operations")
	fmt.Printf("%-28s %15d %15d\n", "with eager aggregation", rw.Stats.RowsProcessed, rw.Stats.HashOps)
	fmt.Printf("%-28s %15d %15d\n", "without (plain plan)", ro.Stats.RowsProcessed, ro.Stats.HashOps)
	floatSum, err := with.Explain(`SELECT s.city, SUM(f.amount) FROM sales f, dim_store s WHERE f.k2 = s.k GROUP BY s.city`)
	must(err)
	fmt.Println("\nSUM(f.amount) over FLOAT is aggregated once, above the join (exact, not staged):")
	fmt.Println(floatSum)

	fmt.Println("\n== results agree ==")
	fmt.Printf("%-10s %14s %8s\n", "city", "sum(qty)", "count")
	for i, r := range rw.Rows {
		fmt.Printf("%-10s %14d %8d  same without eager aggregation: %v\n", r[0], r[1], r[2], fmt.Sprint(r) == fmt.Sprint(ro.Rows[i]))
	}
	fmt.Println("\n== star query over two dimensions with selective filters ==")
	eng := buildStar(queryopt.Options{})
	star := `SELECT p.pname, s.city, SUM(f.amount)
	         FROM sales f, dim_product p, dim_store s
	         WHERE f.k1 = p.k AND f.k2 = s.k AND p.category = 3 AND s.region = 1
	         GROUP BY p.pname, s.city`
	plan, err := eng.Explain(star)
	must(err)
	fmt.Println(plan)
	res, err := eng.Exec(star)
	must(err)
	fmt.Printf("%d result groups, %d rows processed\n", len(res.Rows), res.Stats.RowsProcessed)

	fmt.Println("\n== CUBE: subtotals at every grouping level (§7.4, [24]) ==")
	cube, err := eng.Exec(`SELECT s.city, p.category, SUM(f.amount)
	        FROM sales f, dim_product p, dim_store s
	        WHERE f.k1 = p.k AND f.k2 = s.k AND p.category < 2 AND s.region < 2
	        GROUP BY CUBE (s.city, p.category)`)
	must(err)
	fmt.Printf("%-10s %-10s %14s\n", "city", "category", "sum(amount)")
	for _, r := range cube.Rows {
		city, cat := "ALL", "ALL"
		if r[0] != nil {
			city = fmt.Sprint(r[0])
		}
		if r[1] != nil {
			cat = fmt.Sprint(r[1])
		}
		fmt.Printf("%-10s %-10s %14.2f\n", city, cat, r[2])
	}
}
