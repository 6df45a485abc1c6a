package implement

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/workload"
)

// TestNullRejected: a column is null-rejected when a column equality in an
// inner join or a filter above its scan — and below any LIMIT — compares it;
// an outer join's ON clause rejects nothing.
func TestNullRejected(t *testing.T) {
	db := workload.EmpDept(workload.EmpDeptConfig{Emps: 100, Depts: 10})
	for _, tc := range []struct{ query, want string }{
		{"SELECT e.name FROM Emp e, Dept d WHERE e.did = d.did AND e.age > 30", "d.did e.did"},
		{"SELECT e.name FROM Emp e LEFT OUTER JOIN Dept d ON e.did = d.did", ""},
		{"SELECT e.name FROM Emp e WHERE e.eid = e.did", "e.did e.eid"},
		{"SELECT x.did FROM (SELECT did FROM Emp ORDER BY did LIMIT 5) x, Dept d WHERE x.did = d.did", "d.did"},
	} {
		sel, err := sql.ParseSelect(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		q, err := logical.NewBuilder(db.Cat).Build(sel)
		if err != nil {
			t.Fatal(err)
		}
		logical.NormalizeQuery(q, logical.DefaultNormalize())
		var got []string
		set := NullRejected(q.Root)
		for id := logical.ColumnID(1); int(id) <= q.Meta.NumColumns(); id++ {
			if set.Contains(id) {
				got = append(got, q.Meta.QualifiedName(id))
			}
		}
		sort.Strings(got)
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s\nnull-rejected %q, want %q\n%s", tc.query, g, tc.want, logical.Format(q.Root, q.Meta))
		}
	}
}
