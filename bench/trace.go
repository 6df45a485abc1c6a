package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	queryopt "repro"
	"repro/internal/cascades"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/parallel"
	"repro/internal/physical"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/systemr"
)

// The traced run measures single layers without instrumenting the engine.
// Engine A runs each statement through the public API; a replica engine B,
// set up identically and fed the same statement sequence so its caches
// evolve the same way, lends its catalog and store to a replay of the same
// statement through the layers' public functions, with a span around each
// call. The replayed plan must render like the plan A reports, or the
// statement is counted as diverged and left out of the layer numbers.

// Span names, one per layer call.
const (
	spanStatement = "queryopt.exec" // the end-to-end call on engine A
	spanReplay    = "replay"        // parent of the layer spans
	spanParse     = "sql.parse"
	spanBuild     = "logical.build"
	spanRewrite   = "rewrite.apply"
	spanOptimize  = "systemr.optimize"
	spanParallel  = "parallel.plan"
	spanExec      = "exec.run"
)

// span is one traced call. Spans of one statement share stmt, its position
// in the traced sequence; parent indexes tracer.spans (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, stmt, parent int) int {
	t.spans = append(t.spans, span{Name: name, Stmt: stmt, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

func (t *tracer) write(path string, sp *spec, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{sp.name, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replica replays statements over engine B's catalog and store, mirroring
// Engine.run and Engine.planBound step by step.
type replica struct {
	h     *handle
	opts  queryopt.Options
	cat   *catalog.Catalog
	store *storage.Store
	pool  *exec.Pool // the replica's own workers, as the engine's are private
	model cost.Model
}

func newReplica(h *handle, opts queryopt.Options) *replica {
	r := &replica{h: h, opts: opts, cat: h.eng.Catalog(), store: h.eng.Store(), model: cost.DefaultModel()}
	if opts.Parallelism > 1 {
		r.pool = exec.NewPool(opts.Parallelism)
	}
	return r
}

func (r *replica) close() {
	if r.pool != nil {
		r.pool.Close()
	}
	r.h.close()
}

// estimator mirrors Engine.newEstimator, including the segment statistics
// and pruned-page costing a disk-backed engine wires in.
func (r *replica) estimator(md *logical.Metadata) *stats.Estimator {
	est := stats.NewEstimator(md)
	if !r.store.DiskBacked() {
		return est
	}
	est.SegmentStats = func(name string) *catalog.TableStats {
		tab, ok := r.store.Table(name)
		if !ok {
			return nil
		}
		return stats.SegmentTableStats(tab)
	}
	est.ScanPages = func(scan *logical.Scan, filters []logical.Scalar) float64 {
		tab, ok := r.store.Table(scan.Table.Name)
		if !ok {
			return -1
		}
		ords := make([]int, len(scan.Cols))
		for i, id := range scan.Cols {
			ords[i] = md.Column(id).BaseOrd
		}
		if p := tab.PrunedPageCount(exec.CompileScanZonePreds(filters, scan.Cols, ords)); p >= 0 {
			return float64(p)
		}
		return -1
	}
	return est
}

func (r *replica) execCtx(store *storage.Store, md *logical.Metadata, degree int) *exec.Ctx {
	ec := exec.NewCtx(store, md)
	ec.Context = context.Background()
	ec.Mem = exec.NewMemAccount(0)
	if degree > 1 {
		ec.Parallelism, ec.Pool = degree, r.pool
	}
	return ec
}

// replayed is what one replay yields.
type replayed struct {
	query    *logical.Query
	serial   physical.Plan // before parallel.Parallelize
	plan     physical.Plan // as executed
	planText string
	tier     systemr.Tier
	metrics  systemr.Metrics
	estCost  float64
	dur      map[string]time.Duration // by span name
}

func toDatums(args []any) []datum.D {
	out := make([]datum.D, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			out[i] = datum.NewInt(v)
		case float64:
			out[i] = datum.NewFloat(v)
		case string:
			out[i] = datum.NewString(v)
		}
	}
	return out
}

// buildQuery runs parse → build → normalize (→ rewrites) → prune, with spans
// when tr is non-nil.
func (r *replica) buildQuery(s *stmt, rewrites bool, tr *tracer, k, parent int, out *replayed) (*logical.Query, error) {
	timed := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		i := tr.begin(name, k, parent)
		err := fn()
		out.dur[name] += tr.end(i)
		return err
	}
	var sel *sql.SelectStmt
	if err := timed(spanParse, func() (err error) {
		sel, err = sql.ParseSelect(s.text)
		return err
	}); err != nil {
		return nil, err
	}
	var q *logical.Query
	if err := timed(spanBuild, func() (err error) {
		b := logical.NewBuilder(r.cat)
		if s.args != nil {
			b.BindParams(toDatums(s.args))
		}
		if q, err = b.Build(sel); err == nil {
			logical.NormalizeQuery(q, logical.DefaultNormalize())
		}
		return err
	}); err != nil {
		return nil, err
	}
	if rewrites {
		_ = timed(spanRewrite, func() error {
			rewrite.UnnestSubqueries(q)
			rewrite.AssociateJoinOuterjoin(q)
			rewrite.MovePredicates(q)
			rewrite.PushDownGroupBy(q)
			return nil
		})
	}
	_ = timed(spanBuild, func() error {
		if rewrites {
			logical.NormalizeQuery(q, logical.DefaultNormalize())
		}
		logical.PruneColumns(q)
		return nil
	})
	return q, nil
}

// replay runs statement s (k-th of the traced sequence) through every layer.
func (r *replica) replay(s *stmt, tr *tracer, k int) (*replayed, error) {
	out := &replayed{dur: map[string]time.Duration{}}
	root := tr.begin(spanReplay, k, -1)
	defer tr.end(root)
	q, err := r.buildQuery(s, true, tr, k, root, out)
	if err != nil {
		return nil, err
	}
	out.query = q

	i := tr.begin(spanOptimize, k, root)
	opt := systemr.New(r.estimator(q.Meta), r.model, systemr.DefaultOptions())
	plan, err := opt.Optimize(q)
	out.dur[spanOptimize] = tr.end(i)
	if err != nil {
		return nil, err
	}
	out.serial, out.plan, out.tier, out.metrics = plan, plan, opt.Tier, opt.Metrics
	_, out.estCost = plan.Estimate()

	if r.opts.Parallelism > 1 {
		i = tr.begin(spanParallel, k, root)
		out.plan = parallel.Parallelize(plan, parallel.Config{
			Degree: r.opts.Parallelism, CommCostPerRow: r.model.CommCostPerRow,
		}, r.model).Plan
		out.dur[spanParallel] = tr.end(i)
	}
	out.planText = physical.Format(out.plan, q.Meta)

	i = tr.begin(spanExec, k, root)
	_, err = exec.RunPlanQuery(out.plan, q, r.execCtx(r.store, q.Meta, r.opts.Parallelism))
	out.dur[spanExec] = tr.end(i)
	return out, err
}

// timeRun executes an already replayed plan once more, over another store or
// at another degree, and returns the wall time.
func (r *replica) timeRun(p physical.Plan, q *logical.Query, store *storage.Store, degree int) (time.Duration, error) {
	t0 := time.Now()
	_, err := exec.RunPlanQuery(p, q, r.execCtx(store, q.Meta, degree))
	return time.Since(t0), err
}

// otherOptimizers plans s with Cascades and with the Starburst QGM pipeline,
// without executing: diagnostic planning times for the same statement.
func (r *replica) otherOptimizers(s *stmt) (casc, starburst time.Duration, err error) {
	var scratch replayed
	q, err := r.buildQuery(s, true, nil, 0, 0, &scratch)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if _, err = cascades.New(r.estimator(q.Meta), r.model, cascades.DefaultOptions()).Optimize(q); err != nil {
		return 0, 0, err
	}
	casc = time.Since(t0)
	// Starburst runs its own rewrite phase over the un-rewritten query.
	if q, err = r.buildQuery(s, false, nil, 0, 0, &scratch); err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	sb := &qgm.Optimizer{Engine: qgm.DefaultEngine(), Plan: systemr.New(r.estimator(q.Meta), r.model, systemr.DefaultOptions())}
	_, _, err = sb.Optimize(q)
	return casc, time.Since(t0), err
}

var (
	estimatesRE = regexp.MustCompile(`  \(rows=[^)]*\)`)
	mergeRE     = regexp.MustCompile(` merge [^(]*`)
)

// samePlan compares the replayed plan with the plan engine A reports, as
// bags of operator lines: the same operators with the same estimates, in any
// order. The order is left out because System-R breaks cost ties by Go map
// iteration order, so one statement planned twice on one engine may come out
// with the inputs of a join swapped at equal cost; the swap also moves the
// merge ordering an exchange above the join advertises, so that annotation is
// dropped. A plan dispatched from the plan cache was optimized at other
// bindings, so its estimates legitimately differ and only the operators are
// compared.
func samePlan(enginePlan, replayPlan, tier string) bool {
	lines := func(plan string) []string {
		if tier == "cached" {
			plan = estimatesRE.ReplaceAllString(plan, "")
		}
		ls := strings.Split(mergeRE.ReplaceAllString(plan, "  "), "\n")
		for i := range ls {
			ls[i] = strings.TrimSpace(ls[i])
		}
		sort.Strings(ls)
		return ls
	}
	return slices.Equal(lines(enginePlan), lines(replayPlan))
}

// inlineArgs renders a prepared statement as literal text, for the
// text-only Engine.QueryAnalyze.
func inlineArgs(s *stmt) string {
	text := s.text
	for _, a := range s.args {
		lit := fmt.Sprint(a)
		if str, ok := a.(string); ok {
			lit = "'" + str + "'"
		}
		text = strings.Replace(text, "?", lit, 1)
	}
	return text
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// maxTraced caps the traced statements, and with them the span file.
const maxTraced = 20000

// traceAcc accumulates the traced run's observations.
type traceAcc struct {
	tally
	tr       tracer
	n        int // statements traced
	diverged int
	// Per-statement samples over every non-diverged traced statement.
	e2e, overhead []float64
	// Time sums behind the shares: a share is a part of all statement time.
	sumE2E, sumUnattributed, sumPlanning time.Duration
	layer                                map[string][]float64 // µs by span name
	execNanos, rowsProcessed             int64
	missBytes                            int64
	// First cycle over the distinct statements: fixed work, so these repeat
	// exactly for a seed.
	first struct {
		n, dp                                   int
		plansCosted, subsetsVisited             int
		estCostSum                              float64
		rows, hashOps, comparisons, peakMem     int64
		segRead, segPruned, dict, rle, plain    int64
		subqueries, unnested                    int
		cascadesUs, qgmUs, qerr, speedup, delta []float64
	}
}

// one traces a single statement: the call on A, the replay on B, and during
// the first cycle the once-per-statement diagnostics.
func (a *traceAcc) one(s *stmt, A *handle, B *replica, mem *handle, firstCycle bool) error {
	k := a.n
	a.n++
	i := a.tr.begin(spanStatement, k, -1)
	res, err := A.exec(s)
	e2e := a.tr.end(i)
	a.check(s, res, err)
	if err != nil {
		return fmt.Errorf("%s: %w", s.text, err)
	}
	rp, err := B.replay(s, &a.tr, k)
	if err != nil {
		return fmt.Errorf("replay %s: %w", s.text, err)
	}
	st := res.Stats
	a.missBytes += st.BytesRead
	if firstCycle {
		f := &a.first
		f.n++
		f.rows += st.RowsProcessed
		f.hashOps += st.HashOps
		f.comparisons += st.Comparisons
		if st.PeakMemBytes > f.peakMem {
			f.peakMem = st.PeakMemBytes
		}
		f.segRead += st.SegmentsRead
		f.segPruned += st.SegmentsPruned
		f.dict += st.BlocksDict
		f.rle += st.BlocksRLE
		f.plain += st.BlocksPlain
		if s.subquery {
			f.subqueries++
			if st.SubqueryEvals == 0 {
				f.unnested++
			}
		}
	}
	if !samePlan(res.Plan, rp.planText, res.PlannerTier) {
		a.diverged++
		return nil
	}

	// Attribute to the layers only what the engine itself did: a cached
	// dispatch skipped planning, a prepared statement was parsed at Prepare.
	attributed := rp.dur[spanExec]
	var planning time.Duration
	if res.PlannerTier != "cached" {
		planning = rp.dur[spanBuild] + rp.dur[spanRewrite] + rp.dur[spanOptimize]
		if s.args == nil {
			planning += rp.dur[spanParse]
		}
		attributed += planning + rp.dur[spanParallel]
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	a.e2e = append(a.e2e, us(e2e))
	a.overhead = append(a.overhead, us(e2e-attributed))
	a.sumE2E += e2e
	a.sumPlanning += planning
	if e2e > attributed {
		a.sumUnattributed += e2e - attributed
	}
	for name, d := range rp.dur {
		a.layer[name] = append(a.layer[name], us(d))
	}
	a.execNanos += int64(rp.dur[spanExec])
	a.rowsProcessed += st.RowsProcessed

	if !firstCycle {
		return nil
	}
	f := &a.first
	f.plansCosted += rp.metrics.PlansCosted
	f.subsetsVisited += rp.metrics.SubsetsVisited
	f.estCostSum += rp.estCost
	if rp.tier == systemr.TierDP {
		f.dp++
	}
	if s.nrel <= 6 {
		casc, sb, err := B.otherOptimizers(s)
		if err != nil {
			return fmt.Errorf("other optimizers %s: %w", s.text, err)
		}
		f.cascadesUs = append(f.cascadesUs, us(casc))
		f.qgmUs = append(f.qgmUs, us(sb))
	}
	_, pa, err := B.h.eng.QueryAnalyze(inlineArgs(s))
	if err != nil {
		return fmt.Errorf("analyze %s: %w", s.text, err)
	}
	f.qerr = append(f.qerr, pa.WorstQError)
	if B.opts.Parallelism > 1 {
		serial, err := B.timeRun(rp.serial, rp.query, B.store, 1)
		if err != nil {
			return err
		}
		f.speedup = append(f.speedup, float64(serial)/float64(rp.dur[spanExec]))
	}
	if mem != nil {
		inMem, err := B.timeRun(rp.plan, rp.query, mem.eng.Store(), B.opts.Parallelism)
		if err != nil {
			return err
		}
		f.delta = append(f.delta, us(rp.dur[spanExec]-inMem))
	}
	return nil
}

// traceWorkload is the traced run: an untraced baseline on engine A, then
// the traced sequence, which always completes one cycle over the distinct
// statements and continues for about the given seconds.
func traceWorkload(sp *spec, c *corpus, seed int64, seconds float64) (map[string]float64, *tally, error) {
	acc := &traceAcc{layer: map[string][]float64{}}
	acc.tr.t0 = time.Now()
	var t tally

	A, _, writes, err := setUp(sp, c, &t)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if A != nil { // nil when ingest_mixed's second set-up failed
			A.close()
		}
	}()

	// Baseline: the same statements, untraced, on A alone. For ingest_mixed
	// that is a whole cycle, after which A starts over; the other workloads
	// run their passes once before and once after the traced loop, so that
	// warming during the run does not show up as negative overhead.
	var plain []float64
	var ms0, ms1 runtime.MemStats
	run := func(s *stmt) error {
		t0 := time.Now()
		res, err := A.exec(s)
		plain = append(plain, float64(time.Since(t0))/1e3)
		t.check(s, res, err)
		return nil
	}
	plainPasses := func() {
		for _, pass := range c.passes {
			for _, s := range pass {
				_ = run(s)
			}
		}
	}
	runtime.ReadMemStats(&ms0)
	if c.batches != nil {
		if err := ingestCycle(c, &writes, run, A); err != nil {
			return nil, nil, err
		}
	} else {
		plainPasses()
	}
	runtime.ReadMemStats(&ms1)
	var bytesPerRow float64
	if A.dir != "" {
		bytesPerRow = float64(dirBytes(A.dir)) / float64(writes.rows)
	}
	if c.batches != nil {
		A.close()
		if A, _, _, err = setUp(sp, c, &t); err != nil {
			return nil, nil, err
		}
	}

	hb, _, _, err := setUp(sp, c, &t)
	if err != nil {
		return nil, nil, err
	}
	B := newReplica(hb, sp.opts)
	defer B.close()
	var mem *handle
	if sp.disk && c.batches == nil {
		// The in-memory twin prices the storage layer: the same plan over
		// the same rows without segments.
		if mem, _, err = open(sp.opts, false, c); err != nil {
			return nil, nil, err
		}
		defer mem.close()
	}

	pc0 := A.eng.PlanCacheStats()
	if c.batches != nil {
		err = ingestCycle(c, &loadTimes{}, func(s *stmt) error { return acc.one(s, A, B, nil, true) }, A, B.h)
	} else {
		start := time.Now()
		for p := 0; err == nil; p++ {
			firstCycle := p < len(c.passes)
			if !firstCycle && (time.Since(start).Seconds() >= seconds || acc.n >= maxTraced) {
				break
			}
			for _, s := range c.passes[p%len(c.passes)] {
				if err = acc.one(s, A, B, mem, firstCycle); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	pc1 := A.eng.PlanCacheStats()
	plainBefore := len(plain)
	if c.batches == nil {
		plainPasses()
	}
	t.attempted += acc.attempted
	t.failed += acc.failed

	if err := acc.tr.write(filepath.Join(tmpRoot, "trace-"+sp.name+".json"), sp, seed); err != nil {
		return nil, nil, err
	}
	if acc.diverged*100 > acc.n {
		return nil, nil, fmt.Errorf("trace: %d of %d statements diverged from the engine's plan (limit 1%%)", acc.diverged, acc.n)
	}

	f := &acc.first
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := float64(pc1.Hits-pc0.Hits), float64(pc1.Misses-pc0.Misses)
	m := map[string]float64{
		"sql.parse_us":                 median(acc.layer[spanParse]),
		"logical.build_us":             median(acc.layer[spanBuild]),
		"rewrite.apply_us":             median(acc.layer[spanRewrite]),
		"rewrite.unnested_share":       ratio(float64(f.unnested), float64(f.subqueries)),
		"systemr.optimize_us":          median(acc.layer[spanOptimize]),
		"systemr.plans_costed":         float64(f.plansCosted),
		"systemr.subsets_visited":      float64(f.subsetsVisited),
		"systemr.tier_dp_share":        ratio(float64(f.dp), float64(f.n)),
		"systemr.est_cost_sum":         f.estCostSum,
		"cascades.optimize_us":         median(f.cascadesUs),
		"qgm.optimize_us":              median(f.qgmUs),
		"stats.worst_qerror_p50":       median(f.qerr),
		"plancache.hit_rate":           ratio(hits, hits+misses),
		"plancache.misses":             misses,
		"parallel.plan_us":             median(acc.layer[spanParallel]),
		"parallel.speedup":             median(f.speedup),
		"exec.run_us":                  median(acc.layer[spanExec]),
		"exec.run_share":               ratio(float64(acc.execNanos), float64(acc.sumE2E)),
		"exec.ns_per_row":              ratio(float64(acc.execNanos), float64(acc.rowsProcessed)),
		"exec.rows_processed":          float64(f.rows),
		"exec.hash_ops":                float64(f.hashOps),
		"exec.comparisons":             float64(f.comparisons),
		"exec.peak_mem_bytes":          float64(f.peakMem),
		"storage.delta_us":             median(f.delta),
		"storage.prune_share":          ratio(float64(f.segPruned), float64(f.segRead+f.segPruned)),
		"storage.miss_bytes_per_query": ratio(float64(acc.missBytes), float64(acc.n)),
		"storage.blocks_dict":          float64(f.dict),
		"storage.blocks_rle":           float64(f.rle),
		"storage.blocks_plain":         float64(f.plain),
		"storage.bytes_per_row":        bytesPerRow,
		"storage.rows_loaded":          float64(writes.rows),
		"storage.load_rows_per_s":      ratio(float64(writes.rows), writes.load.Seconds()),
		"storage.flush_ms":             float64(writes.flush) / 1e6,
		"storage.analyze_ms":           float64(writes.analyze) / 1e6,
		"queryopt.overhead_us":         median(acc.overhead),
		"queryopt.unattributed_share":  ratio(float64(acc.sumUnattributed), float64(acc.sumE2E)),
		"queryopt.planning_share":      ratio(float64(acc.sumPlanning), float64(acc.sumE2E)),
		"go.alloc_kb_per_query":        ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(plainBefore)),
		"go.gc_cycles":                 float64(ms1.NumGC - ms0.NumGC),
		"go.gc_pause_ms":               float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"trace.statements":             float64(acc.n),
		"trace.diverged":               float64(acc.diverged),
		"trace.overhead":               ratio(median(acc.e2e), median(plain)),
	}
	return m, &t, nil
}
