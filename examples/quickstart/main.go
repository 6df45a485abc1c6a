// Command quickstart is the smallest end-to-end tour of the engine: define a
// schema, load rows, collect statistics, and watch the optimizer pick
// different access paths as predicates change.
package main

import (
	"fmt"

	queryopt "repro"
)

func main() {
	eng := queryopt.New(queryopt.Options{})

	fmt.Println("== schema ==")
	eng.MustExec(`CREATE TABLE emp (
		eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, age INT,
		PRIMARY KEY (eid))`)
	eng.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, PRIMARY KEY (did))`)
	eng.MustExec(`CREATE INDEX emp_did ON emp (did)`)

	// Load a few thousand employees across 20 departments.
	var rows [][]any
	locs := []string{"Denver", "Austin", "Boston"}
	for i := 0; i < 5000; i++ {
		rows = append(rows, []any{i, fmt.Sprintf("emp%04d", i), i % 20, 1000.0 + float64(i%997), 20 + i%45})
	}
	if err := eng.LoadRows("emp", rows); err != nil {
		panic(err)
	}
	var depts [][]any
	for d := 0; d < 20; d++ {
		depts = append(depts, []any{d, fmt.Sprintf("dept%02d", d), locs[d%len(locs)]})
	}
	if err := eng.LoadRows("dept", depts); err != nil {
		panic(err)
	}
	eng.MustExec(`ANALYZE`)

	fmt.Println("\n== a selective point lookup uses the primary index ==")
	mustShowPlan(eng, `SELECT name FROM emp WHERE eid = 4321`)

	fmt.Println("== an unselective predicate scans sequentially ==")
	mustShowPlan(eng, `SELECT name FROM emp WHERE sal > 0`)

	fmt.Println("== a join with grouping ==")
	q := `SELECT d.loc, COUNT(*), AVG(e.sal)
	      FROM emp e, dept d
	      WHERE e.did = d.did AND e.age < 30
	      GROUP BY d.loc ORDER BY d.loc`
	mustShowPlan(eng, q)
	res, err := eng.Exec(q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-10s %8s %12s\n", "loc", "count", "avg(sal)")
	for _, r := range res.Rows {
		fmt.Printf("%-10s %8d %12.2f\n", r[0], r[1], r[2])
	}
	fmt.Printf("\nmeasured: %d rows processed, %d index seeks\n",
		res.Stats.RowsProcessed, res.Stats.IndexSeeks)
	fmt.Printf("estimated: %.0f rows, cost %.1f\n", res.EstRows, res.EstCost)
}

func mustShowPlan(eng *queryopt.Engine, q string) {
	plan, err := eng.Explain(q)
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	fmt.Println(plan)
}
