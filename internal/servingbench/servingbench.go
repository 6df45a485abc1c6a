// Package servingbench measures the concurrent serving layer: N session
// goroutines each issue a stream of parameterized queries against one shared
// engine, in three modes — plain Exec with literals inlined (parse + optimize
// every time), prepared statements with the plan cache disabled (parse once,
// optimize every time), and prepared statements with the cache on (parse
// once, optimize only on plan-cache misses). Every query carries an ORDER BY
// or is a single-row aggregate, so results are order-deterministic and the
// bench certifies all three modes bit-identical per query instance.
//
// It lives outside internal/experiments because it drives the top-level
// engine package, which the experiments package cannot import (the engine's
// own benchmarks import experiments).
package servingbench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	queryopt "repro"
)

// Point is one (mode, sessions) measurement.
type Point struct {
	Mode     string  `json:"mode"`
	Sessions int     `json:"sessions"`
	Queries  int     `json:"queries"`
	WallSec  float64 `json:"wall_seconds"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	// HitRate is plan-cache hits / executions (0 for modes that never hit).
	HitRate float64 `json:"hit_rate"`
	// Identical certifies every query instance returned exactly the rows the
	// exec-literal baseline returned.
	Identical bool `json:"identical"`
}

// Result is the full sweep plus host information (qps on one core measures
// dispatch overhead, not parallel speedup).
type Result struct {
	TableRows  int     `json:"table_rows"`
	PerSession int     `json:"queries_per_session"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUs       int     `json:"cpus"`
	Points     []Point `json:"points"`
}

// query is one corpus template: parameterized text for Prepare, a literal
// formatter for the Exec baseline, and a binding generator.
type query struct {
	param string
	lit   func(args []int64) string
	args  func(g, i int) []int64
}

// corpus returns the bench queries. Bindings rotate over a small set of
// distinct values per template so the plan cache warms quickly; every
// result is order-deterministic.
func corpus() []query {
	fk := func(g, i int) int64 { return int64(((g*7 + i) % 16) * 12) }
	av := func(g, i int) int64 { return int64((g + i) % 8 * 2) }
	return []query{
		{
			param: "SELECT pk, a FROM r WHERE fk = ? ORDER BY pk",
			lit: func(a []int64) string {
				return fmt.Sprintf("SELECT pk, a FROM r WHERE fk = %d ORDER BY pk", a[0])
			},
			args: func(g, i int) []int64 { return []int64{fk(g, i)} },
		},
		{
			param: "SELECT COUNT(*), SUM(f) FROM r WHERE a > ?",
			lit: func(a []int64) string {
				return fmt.Sprintf("SELECT COUNT(*), SUM(f) FROM r WHERE a > %d", a[0])
			},
			args: func(g, i int) []int64 { return []int64{av(g, i)} },
		},
		{
			param: "SELECT fk, COUNT(*) FROM r WHERE a > ? GROUP BY fk ORDER BY fk",
			lit: func(a []int64) string {
				return fmt.Sprintf("SELECT fk, COUNT(*) FROM r WHERE a > %d GROUP BY fk ORDER BY fk", a[0])
			},
			args: func(g, i int) []int64 { return []int64{av(g, i)} },
		},
		{
			param: "SELECT pk FROM r WHERE fk >= $1 AND fk < $2 ORDER BY pk",
			lit: func(a []int64) string {
				return fmt.Sprintf("SELECT pk FROM r WHERE fk >= %d AND fk < %d ORDER BY pk", a[0], a[1])
			},
			args: func(g, i int) []int64 { lo := fk(g, i); return []int64{lo, lo + 24} },
		},
	}
}

// newEngine builds the bench schema: one indexed table sized so queries stay
// short (OLTP-style), keeping parse/optimize a measurable share of latency.
func newEngine(tableRows int, planCacheSize int) (*queryopt.Engine, error) {
	e := queryopt.New(queryopt.Options{PlanCacheSize: planCacheSize})
	if _, err := e.Exec(`CREATE TABLE r (pk INT NOT NULL, fk INT, a INT, f FLOAT, PRIMARY KEY (pk))`); err != nil {
		return nil, err
	}
	if _, err := e.Exec(`CREATE INDEX r_fk ON r (fk)`); err != nil {
		return nil, err
	}
	rows := make([][]any, tableRows)
	for i := 0; i < tableRows; i++ {
		// Deterministic skew-free data; fk spans [0, 192), a spans [0, 20).
		rows[i] = []any{i, (i * 13) % 192, (i * 7) % 20, float64(i%1000) / 4}
	}
	if err := e.LoadRows("r", rows); err != nil {
		return nil, err
	}
	if _, err := e.Exec("ANALYZE"); err != nil {
		return nil, err
	}
	return e, nil
}

// fingerprint renders a result deterministically (floats exact).
func fingerprint(res *queryopt.Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for j, v := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			if f, ok := v.(float64); ok {
				sb.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
			} else {
				fmt.Fprint(&sb, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Run sweeps the session counts for all three modes. tableRows sizes the
// table; perSession is the number of queries each session issues.
func Run(tableRows, perSession int, sessions []int) (*Result, error) {
	qs := corpus()
	out := &Result{
		TableRows:  tableRows,
		PerSession: perSession,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
	}

	// Baseline answers, one per (session, query-index) instance, computed
	// once on a warm engine: modes are compared against these fingerprints.
	maxSessions := 0
	for _, s := range sessions {
		if s > maxSessions {
			maxSessions = s
		}
	}
	base, err := newEngine(tableRows, -1)
	if err != nil {
		return nil, err
	}
	want := make([][]string, maxSessions)
	for g := 0; g < maxSessions; g++ {
		want[g] = make([]string, perSession)
		for i := 0; i < perSession; i++ {
			q := qs[(g+i)%len(qs)]
			res, err := base.Exec(q.lit(q.args(g, i)))
			if err != nil {
				return nil, fmt.Errorf("servingbench: baseline %q: %w", q.param, err)
			}
			want[g][i] = fingerprint(res)
		}
	}

	type mode struct {
		name      string
		cacheSize int  // engine plan-cache size
		prepared  bool // use Stmt.Exec instead of literal Exec
	}
	modes := []mode{
		{"exec-literal", -1, false},
		{"prepared-reoptimize", -1, true},
		{"prepared-cached", 0, true},
	}

	for _, m := range modes {
		for _, nSessions := range sessions {
			e, err := newEngine(tableRows, m.cacheSize)
			if err != nil {
				return nil, err
			}
			var stmts []*queryopt.Stmt
			if m.prepared {
				for _, q := range qs {
					st, err := e.Prepare(q.param)
					if err != nil {
						return nil, fmt.Errorf("servingbench: prepare %q: %w", q.param, err)
					}
					stmts = append(stmts, st)
				}
			}
			latencies := make([][]float64, nSessions)
			identical := true
			var idMu sync.Mutex
			var wg sync.WaitGroup
			var firstErr error
			start := time.Now()
			for g := 0; g < nSessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					lats := make([]float64, 0, perSession)
					for i := 0; i < perSession; i++ {
						qi := (g + i) % len(qs)
						q := qs[qi]
						args := q.args(g, i)
						t0 := time.Now()
						var res *queryopt.Result
						var err error
						if m.prepared {
							goArgs := make([]any, len(args))
							for k, a := range args {
								goArgs[k] = a
							}
							res, err = stmts[qi].Exec(goArgs...)
						} else {
							res, err = e.Exec(q.lit(args))
						}
						lats = append(lats, time.Since(t0).Seconds())
						match := err == nil && fingerprint(res) == want[g][i]
						idMu.Lock()
						if err != nil && firstErr == nil {
							firstErr = fmt.Errorf("servingbench: %s: %w", m.name, err)
						}
						if err == nil && !match {
							identical = false
						}
						idMu.Unlock()
						if err != nil {
							return
						}
					}
					latencies[g] = lats
				}(g)
			}
			wg.Wait()
			wall := time.Since(start).Seconds()
			if firstErr != nil {
				return nil, firstErr
			}
			var all []float64
			for _, l := range latencies {
				all = append(all, l...)
			}
			sort.Float64s(all)
			pct := func(p float64) float64 {
				if len(all) == 0 {
					return 0
				}
				idx := int(p * float64(len(all)-1))
				return all[idx] * 1000
			}
			st := e.PlanCacheStats()
			hitRate := 0.0
			if st.Hits+st.Misses > 0 {
				hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
			total := nSessions * perSession
			out.Points = append(out.Points, Point{
				Mode:      m.name,
				Sessions:  nSessions,
				Queries:   total,
				WallSec:   wall,
				QPS:       float64(total) / wall,
				P50Ms:     pct(0.50),
				P99Ms:     pct(0.99),
				HitRate:   hitRate,
				Identical: identical,
			})
		}
	}
	return out, nil
}
