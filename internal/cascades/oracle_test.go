package cascades

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/systemr"
	"repro/internal/workload"
)

// bothOptima plans the query with Cascades and with System-R's bushy DP
// without Cartesian products — the same plan space searched two ways — and
// fails unless their best estimated costs agree to a relative 1e-9.
func bothOptima(t *testing.T, q *logical.Query, text string) (cPlan, sPlan physical.Plan) {
	t.Helper()
	cPlan, err := New(stats.NewEstimator(q.Meta), cost.DefaultModel(), DefaultOptions()).Optimize(q)
	if err != nil {
		t.Fatalf("%s: cascades: %v", text, err)
	}
	sPlan, err = systemr.New(stats.NewEstimator(q.Meta), cost.DefaultModel(),
		systemr.Options{Bushy: true, InterestingOrders: true, MaxRelations: 16}).Optimize(q)
	if err != nil {
		t.Fatalf("%s: system-r: %v", text, err)
	}
	_, cc := cPlan.Estimate()
	_, sc := sPlan.Estimate()
	if math.Abs(cc-sc) > 1e-9*math.Max(math.Abs(cc), math.Abs(sc)) {
		t.Fatalf("%s\noptima differ: cascades %v, system-r %v\ncascades:\n%s\nsystem-r:\n%s",
			text, cc, sc, physical.Format(cPlan, q.Meta), physical.Format(sPlan, q.Meta))
	}
	return cPlan, sPlan
}

// oracleDB builds six tables t1..t6(pk, fk, a, b) of 100–5000 rows with a
// clustered primary key and an index on each other column.
func oracleDB(rng *rand.Rand) *workload.DB {
	db := workload.NewDB()
	for i := 1; i <= 6; i++ {
		name := fmt.Sprintf("t%d", i)
		cols := make([]catalog.Column, 4)
		for j, c := range []string{"pk", "fk", "a", "b"} {
			cols[j] = catalog.Column{Name: c, Kind: datum.KindInt, NotNull: j == 0}
		}
		st := db.MustAddTable(&catalog.Table{
			Name: name, Cols: cols, PrimaryKey: []int{0},
			Indexes: []*catalog.Index{
				{Name: name + "_pk", Cols: []int{0}, Unique: true, Clustered: true},
				{Name: name + "_fk", Cols: []int{1}},
				{Name: name + "_a", Cols: []int{2}},
				{Name: name + "_b", Cols: []int{3}},
			},
		})
		rows := 100 + rng.Intn(4901)
		for r := 0; r < rows; r++ {
			if err := st.Insert(datum.Row{datum.NewInt(int64(r)), datum.NewInt(int64(rng.Intn(2000))),
				datum.NewInt(int64(rng.Intn(200))), datum.NewInt(int64(rng.Intn(10000)))}); err != nil {
				panic(err)
			}
		}
	}
	db.Analyze(stats.AnalyzeOptions{})
	return db
}

// oracleQuery generates a connected, cycle-free SPJ statement over t1..tn:
// a chain, a star around t1 or a random tree of equi-joins, with local
// equality and range filters.
func oracleQuery(rng *rand.Rand, n int, shape string) string {
	var from, where []string
	for i := 1; i <= n; i++ {
		from = append(from, fmt.Sprintf("t%d", i))
		if i > 1 {
			p := 1 + rng.Intn(i-1)
			switch shape {
			case "chain":
				p = i - 1
			case "star":
				p = 1
			}
			l, r := p, i
			if rng.Intn(2) == 0 {
				l, r = r, l
			}
			where = append(where, fmt.Sprintf("t%d.fk = t%d.pk", l, r))
		}
		switch rng.Intn(5) {
		case 0:
			where = append(where, fmt.Sprintf("t%d.a = %d", i, rng.Intn(200)))
		case 1:
			lo := rng.Intn(9000)
			where = append(where, fmt.Sprintf("t%d.b BETWEEN %d AND %d", i, lo, lo+rng.Intn(300)))
		case 2:
			where = append(where, fmt.Sprintf("t%d.b < %d", i, rng.Intn(10000)))
		case 3:
			lo := rng.Intn(4000)
			where = append(where, fmt.Sprintf("t%d.pk BETWEEN %d AND %d", i, lo, lo+rng.Intn(1000)))
		}
	}
	text := fmt.Sprintf("SELECT t1.pk, t%d.b FROM %s", n, strings.Join(from, ", "))
	if len(where) > 0 {
		text += " WHERE " + strings.Join(where, " AND ")
	}
	return text
}

// TestEqualOptimumOracle: over generated connected, cycle-free SPJ shapes of
// 2–6 relations, Cascades (commutativity and associativity over the memo)
// and System-R's bushy DP search one plan space through one implementation
// layer, so their best estimated costs must agree, and both plans must
// return the same rows.
func TestEqualOptimumOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for d := 0; d < 6; d++ {
		db := oracleDB(rng)
		for k := 0; k < 15; k++ {
			text := oracleQuery(rng, 2+k%5, []string{"chain", "star", "tree"}[k%3])
			q := buildQuery(t, db, text)
			cPlan, sPlan := bothOptima(t, q, text)
			got, want := runRows(t, db, q, cPlan), runRows(t, db, q, sPlan)
			if strings.Join(got, ";") != strings.Join(want, ";") {
				t.Fatalf("%s\ncascades and system-r plans return different rows (%d vs %d)", text, len(got), len(want))
			}
		}
	}
}

// runRows executes a plan and returns its rows, sorted.
func runRows(t *testing.T, db *workload.DB, q *logical.Query, plan physical.Plan) []string {
	t.Helper()
	res, err := exec.RunPlanQuery(plan, q, exec.NewCtx(db.Store, q.Meta))
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, physical.Format(plan, q.Meta))
	}
	return rowStrings(res)
}
