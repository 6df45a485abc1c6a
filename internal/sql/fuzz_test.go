package sql

import "testing"

// FuzzParse: any input parses to a statement or fails with an error, never
// both and never a panic. The seeds are the statements of the README, the
// examples and the qopt demos, so plain `go test` runs them as cases; the
// fuzzer mutates them from there:
//
//	go test -fuzz=FuzzParse -fuzztime=60s ./internal/sql
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// README
		`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT, PRIMARY KEY (eid))`,
		`CREATE INDEX emp_did ON emp (did)`,
		`INSERT INTO emp VALUES (1, 'alice', 10, 120.5), (2, 'bob', 20, 95.0)`,
		`SELECT name FROM emp WHERE sal > 100`,
		`SELECT name FROM emp WHERE eid = 1`,
		`EXPLAIN ANALYZE SELECT d.dname, COUNT(*), MAX(e.sal) FROM emp e, dept d
		 WHERE e.did = d.did AND e.sal > 50 GROUP BY d.dname ORDER BY d.dname;`,
		// cmd/qopt -demo empdept and -demo star
		`CREATE TABLE dept (did INT NOT NULL, dname VARCHAR, loc VARCHAR, budget FLOAT, PRIMARY KEY (did))`,
		`SELECT d.loc, COUNT(*) FROM emp e, dept d WHERE e.did = d.did GROUP BY d.loc;`,
		`CREATE TABLE dim_store (k INT NOT NULL, city VARCHAR, region INT, PRIMARY KEY (k))`,
		`EXPLAIN SELECT s.city, SUM(f.amount) FROM sales f, dim_store s WHERE f.k2 = s.k GROUP BY s.city;`,
		`ANALYZE`,
		// examples/
		`SELECT d.loc, COUNT(*), AVG(e.sal) FROM emp e, dept d
		 WHERE e.did = d.did AND e.age < 30 GROUP BY d.loc ORDER BY d.loc`,
		`SELECT p.pname, s.city, SUM(f.amount) FROM sales f, dim_product p, dim_store s
		 WHERE f.k1 = p.k AND f.k2 = s.k AND p.category = 3 AND s.region = 1 GROUP BY p.pname, s.city`,
		`SELECT s.city, p.category, SUM(f.amount) FROM sales f, dim_product p, dim_store s
		 WHERE f.k1 = p.k AND f.k2 = s.k AND p.category < 2 AND s.region < 2 GROUP BY CUBE (s.city, p.category)`,
		`CREATE MATERIALIZED VIEW daily_product AS SELECT s.day AS day, s.product AS product,
		 COUNT(*) AS cnt, SUM(s.amount) AS amt FROM sales s GROUP BY s.day, s.product`,
		`ANALYZE daily_product`,
		`SELECT name FROM Emp WHERE did <= $1`,
		`SELECT d.dname FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.did = d.did AND e.sal > 9500)`,
		`SELECT e.name FROM emp e WHERE e.did IN (SELECT d.did FROM dept d WHERE d.loc = 'Denver' AND e.sal > 5000)`,
		`SELECT d.dname FROM dept d WHERE d.num_machines >= (SELECT COUNT(*) FROM emp e WHERE e.did = d.did)`,
		`SELECT d.dname FROM dept d WHERE d.did NOT IN (SELECT e.did FROM emp e)`,
		// the rest of the README's grammar
		`SELECT DISTINCT e.name FROM emp e LEFT JOIN dept d ON e.did = d.did
		 WHERE e.sal BETWEEN 10 AND 20 AND e.name LIKE 'a%' AND d.loc IS NOT NULL
		 UNION ALL SELECT x.n FROM (SELECT name AS n FROM emp) x ORDER BY 1 LIMIT 5`,
		`SELECT did, COUNT(DISTINCT sal) FROM emp GROUP BY ROLLUP (did) HAVING COUNT(*) > 1`,
		`CREATE VIEW denver AS SELECT name FROM emp WHERE NOT (sal < 0 OR did IN (1, 2, ?))`,
		`SELECT name FROM emp WHERE name = 'x@1' AND sal > -5.5`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", input, stmt, err)
		}
	})
}
