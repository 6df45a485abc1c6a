// Command subqueries demonstrates §4.2 of the paper: nested SQL queries
// executed by tuple iteration — the subquery's optimized sub-plan run once
// per outer row, as System R does — versus the unnested (merged) forms — semijoins for IN/EXISTS, and the outerjoin + group-by form for
// correlated aggregates, including the COUNT bug the paper warns about.
package main

import (
	"fmt"
	"math/rand"

	queryopt "repro"
)

func build(opts queryopt.Options) *queryopt.Engine {
	eng := queryopt.New(opts)
	eng.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, PRIMARY KEY (eid))`)
	eng.MustExec(`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, num_machines INT, PRIMARY KEY (did))`)
	eng.MustExec(`CREATE INDEX emp_did ON emp (did)`)
	rng := rand.New(rand.NewSource(7))
	var emps [][]any
	for i := 0; i < 3000; i++ {
		did := any(rng.Intn(60))
		if i%50 == 0 {
			did = nil
		}
		emps = append(emps, []any{i, fmt.Sprintf("e%04d", i), did, 1000 + float64(rng.Intn(9000))})
	}
	must(eng.LoadRows("emp", emps))
	locs := []string{"Denver", "Austin"}
	var depts [][]any
	for d := 0; d < 80; d++ { // departments 60..79 have no employees
		depts = append(depts, []any{d, fmt.Sprintf("dept%02d", d), locs[d%2], rng.Intn(60)})
	}
	must(eng.LoadRows("dept", depts))
	eng.MustExec("ANALYZE")
	return eng
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func run(label string, eng *queryopt.Engine, q string) *queryopt.Result {
	res, err := eng.Exec(q)
	must(err)
	fmt.Printf("%-22s rows=%-5d subquery-evals=%-6d rows-processed=%-8d index-seeks=%d\n",
		label, len(res.Rows), res.Stats.SubqueryEvals, res.Stats.RowsProcessed, res.Stats.IndexSeeks)
	return res
}

func main() {
	nested := build(queryopt.Options{DisableRewrites: true})
	merged := build(queryopt.Options{})

	fmt.Println("== EXISTS: departments with a high earner (§4.2.2) ==")
	q := `SELECT d.dname FROM dept d WHERE EXISTS
	        (SELECT 1 FROM emp e WHERE e.did = d.did AND e.sal > 9500)`
	a := run("tuple iteration", nested, q)
	b := run("unnested (semijoin)", merged, q)
	check(len(a.Rows) == len(b.Rows))

	fmt.Println("\n== correlated IN with an outer reference ==")
	q = `SELECT e.name FROM emp e WHERE e.did IN
	        (SELECT d.did FROM dept d WHERE d.loc = 'Denver' AND e.sal > 5000)`
	a = run("tuple iteration", nested, q)
	b = run("unnested (semijoin)", merged, q)
	check(len(a.Rows) == len(b.Rows))

	fmt.Println("\n== correlated COUNT: the paper's duplicate/NULL trap ==")
	// Departments with more machines than employees. Departments with ZERO
	// employees must appear — a naive join-based flattening loses them; the
	// correct merged form is a LEFT OUTER JOIN + GROUP BY.
	q = `SELECT d.dname FROM dept d WHERE d.num_machines >=
	        (SELECT COUNT(*) FROM emp e WHERE e.did = d.did)`
	a = run("tuple iteration", nested, q)
	b = run("outerjoin + group-by", merged, q)
	check(len(a.Rows) == len(b.Rows))
	fmt.Println("\nplan for the merged form:")
	plan, err := merged.Explain(q)
	must(err)
	fmt.Println(plan)

	fmt.Println("== NOT IN stays nested when NULLs make the antijoin unsafe ==")
	q = `SELECT d.dname FROM dept d WHERE d.did NOT IN (SELECT e.did FROM emp e)`
	a = run("tuple iteration", nested, q)
	b = run("merged engine", merged, q)
	fmt.Printf("both return %d rows (NULL did poisons NOT IN, so the result is empty)\n",
		len(b.Rows))
	check(len(a.Rows) == len(b.Rows))
}

func check(ok bool) {
	if !ok {
		panic("nested and unnested forms disagree — semantics bug")
	}
	fmt.Println("results agree ✓")
}
