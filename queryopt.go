// Package queryopt is an embedded relational engine whose optimizer
// reproduces "An Overview of Query Optimization in Relational Systems"
// (Chaudhuri, PODS 1998): System-R dynamic programming with interesting
// orders, a Starburst-style rewrite phase over a QGM, a Volcano/Cascades
// memo optimizer, histogram-based statistics, the major algebraic
// transformations (subquery unnesting, eager aggregation, magic semijoins,
// outerjoin reordering), materialized-view answering, expensive-predicate
// placement and two-phase parallel optimization.
//
// Quick start:
//
//	eng := queryopt.New(queryopt.Options{})
//	eng.MustExec(`CREATE TABLE emp (eid INT NOT NULL, name VARCHAR, did INT, sal FLOAT)`)
//	eng.MustExec(`INSERT INTO emp VALUES (1, 'alice', 10, 120.5)`)
//	eng.MustExec(`ANALYZE emp`)
//	res, err := eng.Exec(`SELECT name FROM emp WHERE sal > 100`)
package queryopt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/faultfs"
	"repro/internal/logical"
	"repro/internal/matview"
	"repro/internal/parallel"
	"repro/internal/physical"
	"repro/internal/plancache"
	"repro/internal/qgm"
	"repro/internal/rewrite"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/systemr"

	cascadesopt "repro/internal/cascades"
)

// OptimizerKind selects the enumeration architecture (§3 / §6).
type OptimizerKind uint8

// Optimizer architectures.
const (
	// SystemR: bottom-up dynamic programming with interesting orders (§3).
	SystemR OptimizerKind = iota
	// Starburst: QGM rewrite phase, then bottom-up plan optimization (§6.1).
	Starburst
	// Cascades: single-phase top-down memo search (§6.2).
	Cascades
	// Reference executes the normalized logical tree directly with the
	// naive evaluator (no optimization) — the correctness baseline.
	Reference
)

func (k OptimizerKind) String() string {
	switch k {
	case SystemR:
		return "system-r"
	case Starburst:
		return "starburst"
	case Cascades:
		return "cascades"
	case Reference:
		return "reference"
	}
	return "?"
}

// Options configures an Engine.
type Options struct {
	Optimizer OptimizerKind
	// DisableRewrites turns off the §4 transformations (unnesting etc.) for
	// SystemR/Cascades runs; Starburst always runs its rewrite phase.
	DisableRewrites bool
	// UseMaterializedViews enables transparent view answering (§7.3).
	UseMaterializedViews bool
	// SystemR tunes the DP search space when Optimizer is SystemR/Starburst.
	SystemR systemr.Options
	// Cascades tunes the memo search when Optimizer is Cascades.
	Cascades cascadesopt.Options
	// Cost overrides the cost model (zero value = DefaultModel).
	Cost *cost.Model
	// Analyze configures statistics collection for ANALYZE statements.
	Analyze stats.AnalyzeOptions
	// Parallelism > 1 runs the executor's morsel loops on that many workers
	// (§7.1): optimized plans pass through parallel.Parallelize, which plans
	// the Exchange operators — the partitioning boundaries and their modeled
	// communication cost; in shared memory they move no rows — and execute on
	// a shared worker pool of this degree. 0 or 1 runs the same loops on one
	// worker, inline. Engines used with parallelism should be Closed to
	// release the pool.
	Parallelism int
	// FeedbackCapacity sizes the ring buffer of (plan node, estimated rows,
	// actual rows) observations recorded by analyzed executions (EXPLAIN
	// ANALYZE / QueryAnalyze). 0 selects the default of 1024 entries.
	FeedbackCapacity int
	// MemBudget caps each query's working memory (hash-join builds,
	// hash-aggregation tables, sort buffers) in modeled bytes. Operators that
	// exceed it degrade gracefully — external-merge sort, grace hash join,
	// partitioned aggregation spill to temp files — and produce bit-identical
	// results; a query that cannot fit even one spill partition fails with an
	// error matching ErrMemoryBudgetExceeded. 0 means unlimited.
	MemBudget int64
	// TempDir is where spill files are created (empty = os.TempDir()).
	TempDir string
	// Vectorize decides whether the executor compiles kernels. The default
	// (VectorizeAuto) runs every predicate conjunct that has a typed kernel
	// over column vectors and every aggregate over a typed column on a typed
	// accumulator; VectorizeOff compiles none, so predicates evaluate
	// row-at-a-time and aggregates accumulate through the row accumulators.
	// Either way the same scan, join and aggregation operators run, and the
	// results are identical.
	Vectorize VectorizeMode
	// TotalMemBudget caps the working memory of all concurrently running
	// queries combined, in modeled bytes: each query's account (capped at
	// MemBudget) additionally charges this shared pool, so admission-level
	// concurrency cannot multiply MemBudget unchecked. 0 means unlimited.
	TotalMemBudget int64
	// MaxConcurrentQueries bounds how many SELECTs may run at once; excess
	// callers queue at admission. 0 means unbounded.
	MaxConcurrentQueries int
	// AdmissionTimeout bounds how long a query waits at admission before
	// failing with ErrAdmissionTimeout. 0 means wait indefinitely (or until
	// the caller's context is done).
	AdmissionTimeout time.Duration
	// PlanCacheSize bounds the prepared-statement plan cache (entries are
	// normalized statement text + parameter-type signature). 0 selects the
	// default of 128; negative disables the cache, so every Stmt execution
	// re-optimizes at its bindings.
	PlanCacheSize int
	// GreedyJoinThreshold enables the adaptive greedy fast path: join blocks
	// of up to this many relations are ordered by the O(k²) greedy heuristic
	// instead of System-R dynamic programming, trading a possibly worse join
	// order for much cheaper planning on short statements. Result.PlannerTier
	// and EXPLAIN record which tier planned each query. 0 disables (DP runs
	// for every block within SystemR.MaxRelations).
	GreedyJoinThreshold int
	// GreedyCostThreshold > 0 makes every join block try the greedy order
	// first and keep it when its estimated cost is at or below the threshold;
	// costlier blocks fall through to full DP. Complements
	// GreedyJoinThreshold: one gates on block width, the other on how much
	// execution is estimated to be at stake.
	GreedyCostThreshold float64
	// FeedbackPatching promotes analyzed-execution observations (EXPLAIN
	// ANALYZE / QueryAnalyze) into per-(table, predicate) cardinality
	// overrides the estimator consults before histogram estimates, closing
	// §5's statistics loop with runtime truth. A materially changed override
	// bumps the catalog version so stale cached plans re-optimize. Overrides
	// only ever change estimates — plan choice, never results.
	FeedbackPatching bool
	// ReplanQErrorThreshold > 1 arms the re-optimization trigger: when an
	// analyzed execution's worst per-node q-error exceeds the threshold, the
	// next execution of that statement family re-optimizes instead of
	// dispatching from the plan-cache diagram.
	ReplanQErrorThreshold float64
	// IncrementalStats maintains statistics incrementally on INSERT/LoadRows
	// (row and null counts, histogram insertions via incremental
	// widen/split/merge maintenance) instead of leaving them frozen until the
	// next ANALYZE. Default off: plans then see exactly the statistics the
	// last ANALYZE built.
	IncrementalStats bool
	// StorageDir, when non-empty, gives sealed segments files: every table
	// seals each SegmentRows rows into a columnar segment (typed, dictionary
	// or run-length column blocks with min/max zone maps, NULL counts and
	// distinct sketches per column) and scans eliminate segments their
	// predicates cannot match; with a directory the segments are published
	// crash-consistently under StorageDir/<table>/, read back through a
	// bounded block cache, survive a restart, and their metadata serves as
	// coarse statistics when ANALYZE-built stats are missing or stale. Empty
	// (the default) keeps the same segments decoded and pinned in memory;
	// Flush, Scrub and recovery then have nothing to do.
	StorageDir string
	// SegmentRows is the sealed-segment row count, with or without a
	// directory (default 4096 — a multiple of the executor's morsel size, so
	// morsels never straddle segments). Without a directory a table smaller
	// than this never seals and keeps its modeled page count.
	SegmentRows int
	// SegmentCacheBytes bounds the block cache that segment files are read
	// through (default 64 MiB): a block is held decoded when that fits in the
	// room left, else encoded and decoded by morsel range; pinned segments
	// never enter it. Tests set it tiny so that nearly every read misses.
	SegmentCacheBytes int64
	// DisableZoneMaps turns off zone-map segment elimination, and with a
	// directory pruned-page costing: every segment is read and filtered. The
	// control arm of the storage benchmarks.
	DisableZoneMaps bool
	// IORetries is how many times a transient storage fault (one matching
	// faultfs.ErrTransient) is retried before the error propagates to the
	// query. 0 (the default) disables retries; permanent faults are never
	// retried.
	IORetries int
	// IORetryBackoff is the sleep before the first transient-fault retry,
	// doubling on each further attempt.
	IORetryBackoff time.Duration
	// DisableChecksums skips CRC32C verification when segment column blocks
	// are decoded. Writes still record checksums; this is the benchmark
	// control arm for measuring verification overhead and an escape hatch
	// for salvaging data from a damaged directory.
	DisableChecksums bool
	// DisableCompression seals every new segment with plain column blocks,
	// skipping the dictionary and run-length encoders — the A/B control arm
	// of the compression benchmarks. Seal-time only: already-sealed
	// compressed segments still read fine either way. Applies without a
	// StorageDir too: pinned columns are then plain vectors, never
	// dictionary-coded.
	DisableCompression bool
}

// VectorizeMode says whether the executor may compile typed kernels. It does
// not select an executor or an operator: both modes run the same operators.
type VectorizeMode uint8

const (
	// VectorizeAuto (the default) compiles a kernel for every predicate
	// conjunct and aggregate that has one.
	VectorizeAuto VectorizeMode = iota
	// VectorizeOff compiles no kernels: predicates evaluate row-at-a-time
	// and aggregates accumulate through the row accumulators.
	VectorizeOff
)

// ErrMemoryBudgetExceeded is returned (wrapped, match with errors.Is) by
// queries whose working memory cannot fit Options.MemBudget even after
// spilling to disk.
var ErrMemoryBudgetExceeded = exec.ErrMemoryBudgetExceeded

// ErrAdmissionTimeout is returned by queries that waited longer than
// Options.AdmissionTimeout for an execution slot; match with errors.Is.
var ErrAdmissionTimeout = errors.New("queryopt: admission queue timeout")

// ErrPoolClosed is returned (wrapped, match with errors.Is) by parallel
// queries that raced Engine.Close: in-flight work drains, late submissions
// get this typed error.
var ErrPoolClosed = exec.ErrPoolClosed

// Engine is an embedded single-process database engine. Exec, QueryAnalyze
// and prepared-statement execution are safe for concurrent use from many
// goroutines: reads (SELECTs) share the engine, catalog-mutating statements
// (CREATE/INSERT/ANALYZE) serialize against them, parallel executions share
// one worker pool, and per-query memory accounts draw on the shared
// TotalMemBudget pool.
type Engine struct {
	opts  Options
	cat   *catalog.Catalog
	store *storage.Store
	udfs  []udf
	// pool is the worker pool shared by all parallel query executions of
	// this engine; created by New when Parallelism > 1, released by Close.
	pool *exec.Pool
	// feedback retains estimate-vs-actual observations from analyzed
	// executions — the execution-feedback substrate (§5's statistics loop
	// closed with runtime truth).
	feedback *physical.FeedbackRing
	// faults injects errors/latency into scan batches and spill I/O of every
	// query this engine runs — the fault harness the robustness tests drive.
	faults *faultfs.Injector

	// mu is the catalog latch: SELECTs hold it shared for their whole
	// build-optimize-execute span, statements that mutate catalog or data
	// (CREATE, INSERT, ANALYZE) hold it exclusive. Plans never observe a
	// half-applied DDL.
	mu sync.RWMutex
	// catVersion counts catalog shape and statistics changes (DDL, ANALYZE,
	// and materially changed feedback overrides — not INSERT, which leaves
	// cached plans correct, only possibly stale in quality until the next
	// ANALYZE). Cached plan diagrams remember the version they were built
	// under and re-optimize when it moves.
	catVersion atomic.Uint64
	// admitCh is the admission semaphore (nil = unbounded).
	admitCh chan struct{}
	// totalMem is the shared memory pool parented by every query account
	// (nil = unlimited).
	totalMem *exec.MemAccount
	// plans is the prepared-statement plan cache (nil = disabled); hit/miss
	// accounting at plan granularity is in cacheHits/cacheMisses.
	plans                  *plancache.Cache
	cacheHits, cacheMisses atomic.Int64

	// overrides holds feedback-patched cardinalities harvested from analyzed
	// executions (nil unless Options.FeedbackPatching).
	overrides *stats.Overrides
	// replanMu guards replan: statement fingerprints marked by the q-error
	// trigger for forced re-optimization, consumed by the next execution.
	replanMu sync.Mutex
	replan   map[string]struct{}
}

type udf struct {
	name string
	cost float64
	sel  float64
	fn   func([]datum.D) bool
}

// New returns an empty engine.
func New(opts Options) *Engine {
	if opts.SystemR.MaxRelations == 0 {
		opts.SystemR = systemr.DefaultOptions()
	}
	if opts.Cascades.MaxExprs == 0 {
		opts.Cascades = cascadesopt.DefaultOptions()
	}
	if opts.FeedbackCapacity == 0 {
		opts.FeedbackCapacity = 1024
	}
	// The adaptive greedy fast path lives in the System-R enumerator; the
	// engine-level knobs map onto its options.
	if opts.GreedyJoinThreshold > 0 {
		opts.SystemR.GreedyThreshold = opts.GreedyJoinThreshold
	}
	if opts.GreedyCostThreshold > 0 {
		opts.SystemR.GreedyCostThreshold = opts.GreedyCostThreshold
	}
	eng := &Engine{
		opts: opts,
		cat:  catalog.New(),
		store: storage.NewStoreWith(storage.StoreConfig{
			Dir:                opts.StorageDir,
			SegmentRows:        opts.SegmentRows,
			CacheBytes:         opts.SegmentCacheBytes,
			IORetries:          opts.IORetries,
			IORetryBackoff:     opts.IORetryBackoff,
			DisableChecksums:   opts.DisableChecksums,
			DisableCompression: opts.DisableCompression,
		}),
		feedback: physical.NewFeedbackRing(opts.FeedbackCapacity),
		replan:   make(map[string]struct{}),
	}
	if opts.FeedbackPatching {
		eng.overrides = stats.NewOverrides()
	}
	// The pool is created eagerly: lazy creation from concurrent first
	// queries would race, and an eager pool makes Close's drain guarantee
	// unconditional.
	if opts.Parallelism > 1 {
		eng.pool = exec.NewPool(opts.Parallelism)
	}
	if opts.MaxConcurrentQueries > 0 {
		eng.admitCh = make(chan struct{}, opts.MaxConcurrentQueries)
	}
	if opts.TotalMemBudget > 0 {
		eng.totalMem = exec.NewMemAccount(opts.TotalMemBudget)
	}
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = 128
		}
		eng.plans = plancache.New(size)
	}
	return eng
}

// Close releases the engine's parallel worker pool, if one was created.
// In-flight parallel queries drain before Close returns; queries submitted
// after Close fail with an error matching ErrPoolClosed. Engines that never
// executed with Parallelism > 1 need not call it.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// admit claims an execution slot, waiting up to AdmissionTimeout (and no
// longer than the context allows). The returned release must be called when
// the query finishes.
func (e *Engine) admit(ctx context.Context) (release func(), err error) {
	if e.admitCh == nil {
		return func() {}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case e.admitCh <- struct{}{}:
		return func() { <-e.admitCh }, nil
	default:
	}
	var timeout <-chan time.Time
	if e.opts.AdmissionTimeout > 0 {
		t := time.NewTimer(e.opts.AdmissionTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case e.admitCh <- struct{}{}:
		return func() { <-e.admitCh }, nil
	case <-timeout:
		return nil, fmt.Errorf("%w (waited %v for a slot, %d running)",
			ErrAdmissionTimeout, e.opts.AdmissionTimeout, e.opts.MaxConcurrentQueries)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result is a query result: column names and rows of native Go values
// (int64, float64, string, bool, or nil for NULL).
type Result struct {
	Columns []string
	Rows    [][]any
	// Plan is the executed physical plan rendered as text (empty for DDL
	// and reference-mode execution).
	Plan string
	// EstRows and EstCost are the optimizer's estimates for the plan root.
	EstRows, EstCost float64
	// Stats reports the measured execution counters.
	Stats ExecStats
	// UsedMaterializedView names the view substituted, if any.
	UsedMaterializedView string
	// PlannerTier records which planning tier produced the executed plan:
	// "trivial" (no join ordering needed), "greedy", "greedy-fallback" (block
	// wider than MaxRelations), "dp" for System-R/Starburst; "full" for
	// Cascades; "cached" when a prepared execution dispatched a plan-cache
	// diagram. Empty for DDL and reference mode.
	PlannerTier string
}

// ExecStats are measured execution counters (simulated I/O model).
type ExecStats struct {
	PagesRead     int64
	RowsProcessed int64
	IndexSeeks    int64
	SubqueryEvals int64
	HashOps       int64
	Comparisons   int64
	// Spills counts temp files written by operators that degraded to disk
	// under the memory budget; SpillBytes is their total size.
	Spills     int64
	SpillBytes int64
	// PeakMemBytes is the query's working-memory high-water mark against the
	// memory account (reserved plus observed materialization points).
	PeakMemBytes int64
	// SegmentsRead / SegmentsPruned count sealed columnar segments the
	// query's scans read vs eliminated via zone maps (zero for tables smaller
	// than SegmentRows, which have sealed nothing); BytesRead is real
	// segment-file bytes read from disk (cache misses only — warm scans, and
	// engines without a StorageDir, read zero).
	SegmentsRead   int64
	SegmentsPruned int64
	BytesRead      int64
	// BlocksDict / BlocksRLE / BlocksPlain count column blocks read from
	// disk by representation (dictionary, run-length, plain typed/boxed).
	// Cache hits add nothing, same as BytesRead; BlockHits counts them: the
	// column reads the block cache served, decoded or encoded.
	BlocksDict  int64
	BlocksRLE   int64
	BlocksPlain int64
	BlockHits   int64
}

// RegisterPredicate registers a user-defined predicate callable from SQL
// (§7.2). Declared cost and selectivity inform the optimizer; fn executes it.
// Arguments arrive as native Go values.
func (e *Engine) RegisterPredicate(name string, perTupleCost, selectivity float64, fn func(args []any) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.udfs = append(e.udfs, udf{
		name: name, cost: perTupleCost, sel: selectivity,
		fn: func(ds []datum.D) bool {
			args := make([]any, len(ds))
			for i, d := range ds {
				args[i] = toGo(d)
			}
			return fn(args)
		},
	})
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(text string) (*Result, error) {
	return e.ExecContext(context.Background(), text)
}

// ExecContext is Exec under a context: cancellation and deadlines propagate
// to every execution goroutine, which observe them at batch boundaries and
// unwind promptly (the error matches context.Canceled or
// context.DeadlineExceeded). Partial metrics collected before the
// cancellation are still merged; no goroutines are leaked.
func (e *Engine) ExecContext(ctx context.Context, text string) (*Result, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return e.execStmt(ctx, stmt, false, text)
}

// MustExec is Exec for setup code paths; it panics on error.
func (e *Engine) MustExec(text string) *Result {
	res, err := e.Exec(text)
	if err != nil {
		panic(fmt.Sprintf("queryopt: %s: %v", text, err))
	}
	return res
}

// Explain returns the optimized plan for a SELECT without executing it.
func (e *Engine) Explain(text string) (string, error) {
	res, err := e.Exec("EXPLAIN " + text)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&sb, r[0])
	}
	return sb.String(), nil
}

// writeStmt runs a catalog- or data-mutating statement under the exclusive
// latch. bumpVersion marks statements that change plan-relevant state (DDL,
// ANALYZE) so cached plan diagrams re-optimize; INSERT leaves cached plans
// correct and does not bump.
func (e *Engine) writeStmt(bumpVersion bool, fn func() (*Result, error)) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := fn()
	if err == nil && bumpVersion {
		e.catVersion.Add(1)
	}
	return res, err
}

func (e *Engine) execStmt(ctx context.Context, stmt sql.Statement, explain bool, text string) (*Result, error) {
	switch t := stmt.(type) {
	case *sql.CreateTableStmt:
		return e.writeStmt(true, func() (*Result, error) { return e.createTable(t) })
	case *sql.CreateIndexStmt:
		return e.writeStmt(true, func() (*Result, error) { return e.createIndex(t) })
	case *sql.CreateViewStmt:
		return e.writeStmt(true, func() (*Result, error) { return e.createView(t) })
	case *sql.InsertStmt:
		return e.writeStmt(false, func() (*Result, error) { return e.insert(t) })
	case *sql.AnalyzeStmt:
		return e.writeStmt(true, func() (*Result, error) { return e.analyze(t) })
	case *sql.ExplainStmt:
		if t.Analyze {
			sel, ok := t.Stmt.(*sql.SelectStmt)
			if !ok {
				return nil, fmt.Errorf("queryopt: EXPLAIN ANALYZE supports SELECT statements only")
			}
			res, pa, err := e.run(ctx, sel, false, true, text)
			if err != nil {
				return nil, err
			}
			// Like EXPLAIN, the statement's result is the plan — here
			// annotated with the runtime metrics of the completed execution.
			out := &Result{
				Columns: []string{"plan"},
				Plan:    pa.Text,
				EstRows: res.EstRows, EstCost: res.EstCost,
				Stats:                res.Stats,
				UsedMaterializedView: res.UsedMaterializedView,
				PlannerTier:          res.PlannerTier,
			}
			for _, line := range strings.Split(strings.TrimRight(pa.Text, "\n"), "\n") {
				out.Rows = append(out.Rows, []any{line})
			}
			return out, nil
		}
		return e.execStmt(ctx, t.Stmt, true, text)
	case *sql.SelectStmt:
		return e.query(ctx, t, explain, text)
	}
	return nil, fmt.Errorf("queryopt: unsupported statement %T", stmt)
}

func (e *Engine) createTable(t *sql.CreateTableStmt) (*Result, error) {
	def := &catalog.Table{Name: t.Name}
	for _, c := range t.Cols {
		def.Cols = append(def.Cols, catalog.Column{Name: c.Name, Kind: c.Kind, NotNull: c.NotNull})
	}
	for _, pk := range t.PrimaryKey {
		ord := -1
		for i, c := range def.Cols {
			if strings.EqualFold(c.Name, pk) {
				ord = i
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("queryopt: PRIMARY KEY column %q not found", pk)
		}
		def.PrimaryKey = append(def.PrimaryKey, ord)
		def.Cols[ord].NotNull = true
	}
	if len(def.PrimaryKey) > 0 {
		def.Indexes = append(def.Indexes, &catalog.Index{
			Name: strings.ToLower(t.Name) + "_pkey", Cols: def.PrimaryKey,
			Unique: true, Clustered: true,
		})
	}
	if err := e.cat.AddTable(def); err != nil {
		return nil, err
	}
	if _, err := e.store.CreateTable(def); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) createIndex(t *sql.CreateIndexStmt) (*Result, error) {
	def, ok := e.cat.Table(t.Table)
	if !ok {
		return nil, fmt.Errorf("queryopt: unknown table %q", t.Table)
	}
	ix := &catalog.Index{Name: t.Name, Unique: t.Unique, Clustered: t.Clustered}
	for _, c := range t.Cols {
		ord := def.Ordinal(c)
		if ord < 0 {
			return nil, fmt.Errorf("queryopt: unknown column %q in index", c)
		}
		ix.Cols = append(ix.Cols, ord)
	}
	if ix.Clustered && def.ClusteredIndex() != nil {
		return nil, fmt.Errorf("queryopt: table %q already has a clustered index", t.Table)
	}
	def.Indexes = append(def.Indexes, ix)
	if ix.Clustered {
		if tab, ok := e.store.Table(t.Table); ok {
			var spec []datum.SortSpec
			for _, ord := range ix.Cols {
				spec = append(spec, datum.SortSpec{Col: ord})
			}
			if err := tab.SortBy(spec); err != nil {
				return nil, err
			}
		}
	}
	return &Result{}, nil
}

func (e *Engine) createView(t *sql.CreateViewStmt) (*Result, error) {
	if t.Materialized {
		if _, err := matview.Materialize(e.cat, e.store, t.Name, t.SQL); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	if err := e.cat.AddView(&catalog.View{Name: t.Name, SQL: t.SQL}); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) insert(t *sql.InsertStmt) (*Result, error) {
	tab, ok := e.store.Table(t.Table)
	if !ok {
		return nil, fmt.Errorf("queryopt: unknown table %q", t.Table)
	}
	rows := make([]datum.Row, 0, len(t.Rows))
	for _, rowExprs := range t.Rows {
		row := make(datum.Row, len(rowExprs))
		for i, expr := range rowExprs {
			// INSERT accepts constant expressions only.
			sc, err := buildConstExpr(expr)
			if err != nil {
				return nil, err
			}
			v, ok := logical.EvalConst(sc)
			if !ok {
				return nil, fmt.Errorf("queryopt: INSERT values must be constants")
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := tab.InsertBatch(rows); err != nil {
		return nil, err
	}
	if e.opts.IncrementalStats {
		for _, row := range rows {
			e.maintainStats(tab.Def, row)
		}
	}
	return &Result{}, nil
}

// buildConstExpr translates a constant AST expression without name
// resolution.
func buildConstExpr(e sql.Expr) (logical.Scalar, error) {
	cat := catalog.New()
	b := logical.NewBuilder(cat)
	sel := &sql.SelectStmt{Select: []sql.SelectItem{{Expr: e}}}
	q, err := b.Build(sel)
	if err != nil {
		return nil, err
	}
	p, ok := q.Root.(*logical.Project)
	if !ok || len(p.Items) != 1 {
		return nil, fmt.Errorf("queryopt: cannot evaluate INSERT expression")
	}
	return p.Items[0].Expr, nil
}

func (e *Engine) analyze(t *sql.AnalyzeStmt) (*Result, error) {
	if t.Table == "" {
		if err := stats.AnalyzeAll(e.store, e.cat, e.opts.Analyze); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	tab, ok := e.store.Table(t.Table)
	if !ok {
		return nil, fmt.Errorf("queryopt: unknown table %q", t.Table)
	}
	if err := stats.Analyze(tab, e.opts.Analyze); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// Build compiles a SELECT into a logical query (rewrites applied per the
// engine options). Exposed for tooling and the experiment harness.
func (e *Engine) Build(sel *sql.SelectStmt) (*logical.Query, error) {
	b := logical.NewBuilder(e.cat)
	for _, u := range e.udfs {
		b.RegisterUDP(u.name, u.cost, u.sel, u.fn)
	}
	q, err := b.Build(sel)
	if err != nil {
		return nil, err
	}
	logical.NormalizeQuery(q, logical.DefaultNormalize())
	if !e.opts.DisableRewrites && e.opts.Optimizer != Starburst {
		rewrite.UnnestSubqueries(q)
		rewrite.AssociateJoinOuterjoin(q)
		rewrite.MovePredicates(q)
		rewrite.PushDownGroupBy(q)
		logical.NormalizeQuery(q, logical.DefaultNormalize())
	}
	return q, nil
}

func (e *Engine) query(ctx context.Context, sel *sql.SelectStmt, explain bool, text string) (*Result, error) {
	res, _, err := e.run(ctx, sel, explain, false, text)
	return res, err
}

// run optimizes and (unless explain) executes one SELECT. With analyze set,
// execution collects per-operator runtime metrics, the metrics tree is
// returned alongside the result, every (node, est, actual) pair is recorded
// into the engine's feedback ring, and — when the adaptive options are on —
// scan observations are harvested into cardinality overrides and bad plans
// are marked for re-optimization. text is the original statement text, used
// to key the feedback by statement family.
func (e *Engine) run(ctx context.Context, sel *sql.SelectStmt, explain, analyze bool, text string) (*Result, *PlanAnalysis, error) {
	// Admission first (queue without holding any latch), then the shared
	// latch for the whole build-optimize-execute span: a SELECT never
	// observes a half-applied DDL, and version checks against cached plans
	// cannot race catalog changes.
	release, err := e.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()

	q, err := e.Build(sel)
	if err != nil {
		return nil, nil, err
	}

	// Materialized-view answering: collect alternatives, optimize each, and
	// keep the cheapest plan (§7.3).
	type alternative struct {
		q  *logical.Query
		mv string
	}
	alts := []alternative{{q: q}}
	if e.opts.UseMaterializedViews {
		for _, rw := range matview.RewriteWithViews(q, e.cat) {
			alts = append(alts, alternative{q: rw.Query, mv: rw.MV.Name})
		}
	}

	if e.opts.Optimizer == Reference {
		if analyze {
			return nil, nil, fmt.Errorf("queryopt: EXPLAIN ANALYZE requires an optimized plan (reference mode executes logical trees)")
		}
		logical.PruneColumns(q)
		ec := e.newExecCtx(ctx, q.Meta)
		res, err := ec.RunQuery(q)
		if err != nil {
			return nil, nil, err
		}
		return e.finish(q, nil, res, ec, ""), nil, nil
	}

	var bestPlan physical.Plan
	var bestQ *logical.Query
	bestMV, bestTier := "", ""
	for _, alt := range alts {
		logical.PruneColumns(alt.q)
		plan, tier, err := e.optimizeOne(alt.q)
		if err != nil {
			return nil, nil, err
		}
		_, c := plan.Estimate()
		if bestPlan == nil {
			bestPlan, bestQ, bestMV, bestTier = plan, alt.q, alt.mv, tier
			continue
		}
		if _, bc := bestPlan.Estimate(); c < bc {
			bestPlan, bestQ, bestMV, bestTier = plan, alt.q, alt.mv, tier
		}
	}

	// Parallel execution: plan the exchanges (§7.1), then run on the
	// morsel-driven engine over the engine's shared worker pool.
	if e.opts.Parallelism > 1 {
		model := e.costModel()
		par := parallel.Parallelize(bestPlan, parallel.Config{
			Degree:         e.opts.Parallelism,
			CommCostPerRow: model.CommCostPerRow,
		}, model)
		bestPlan = par.Plan
	}

	if explain {
		res := &Result{Columns: []string{"plan"}, PlannerTier: bestTier}
		// With an adaptive fast path configured, EXPLAIN says which tier
		// planned the query; without one, the output is unchanged.
		if e.opts.GreedyJoinThreshold > 0 || e.opts.GreedyCostThreshold > 0 {
			res.Rows = append(res.Rows, []any{"-- planner: " + bestTier})
		}
		for _, line := range strings.Split(strings.TrimRight(physical.Format(bestPlan, bestQ.Meta), "\n"), "\n") {
			res.Rows = append(res.Rows, []any{line})
		}
		res.EstRows, res.EstCost = bestPlan.Estimate()
		res.UsedMaterializedView = bestMV
		return res, nil, nil
	}
	ec := e.newExecCtx(ctx, bestQ.Meta)
	var metrics *physical.RunMetrics
	if analyze {
		metrics = ec.EnableAnalyze()
	}
	res, err := exec.RunPlanQuery(bestPlan, bestQ, ec)
	if err != nil {
		return nil, nil, err
	}
	out := e.finish(bestQ, bestPlan, res, ec, bestMV)
	out.PlannerTier = bestTier
	var pa *PlanAnalysis
	if analyze {
		fp, fpErr := sql.Fingerprint(text)
		if fpErr != nil || fp == "" {
			fp = text
		}
		pa = buildAnalysis(bestPlan, bestQ.Meta, metrics)
		e.feedback.RecordPlan(bestPlan, bestQ.Meta, metrics, fp)
		if e.overrides != nil && e.harvestOverrides(bestPlan, bestQ.Meta, metrics) {
			// A materially changed override invalidates cached plan diagrams
			// the same way DDL/ANALYZE do. catVersion is atomic, so bumping
			// under the shared latch is safe.
			e.catVersion.Add(1)
		}
		if thr := e.opts.ReplanQErrorThreshold; thr > 1 && pa.WorstQError > thr {
			e.markReplan(fp)
		}
	}
	return out, pa, nil
}

// newExecCtx builds the execution context for one query under the engine's
// resource-governor options: the caller's context for cancellation and
// deadlines, a fresh per-query memory account capped at MemBudget, and the
// spill directory.
func (e *Engine) newExecCtx(ctx context.Context, meta *logical.Metadata) *exec.Ctx {
	ec := exec.NewCtx(e.store, meta)
	ec.Context = ctx
	// The per-query account chains to the engine-wide pool so concurrent
	// queries cannot collectively exceed TotalMemBudget.
	ec.Mem = exec.NewMemAccountWithParent(e.opts.MemBudget, e.totalMem)
	ec.TempDir = e.opts.TempDir
	ec.Faults = e.faults
	ec.Vectorize = e.opts.Vectorize != VectorizeOff
	ec.NoPrune = e.opts.DisableZoneMaps
	if e.opts.Parallelism > 1 {
		ec.Parallelism = e.opts.Parallelism
		ec.Pool = e.pool
	}
	return ec
}

// costModel resolves the engine's cost model (options override or default).
func (e *Engine) costModel() cost.Model {
	if e.opts.Cost != nil {
		return *e.opts.Cost
	}
	return cost.DefaultModel()
}

// newEstimator builds the statistics estimator for one query, wired to the
// engine's feedback-patched cardinality overrides when FeedbackPatching is on
// (e.overrides is nil otherwise, which the estimator treats as absent).
func (e *Engine) newEstimator(md *logical.Metadata) *stats.Estimator {
	est := stats.NewEstimator(md)
	est.Overrides = e.overrides
	if e.store.DiskBacked() {
		// Segment footers double as coarse, always-current statistics when
		// ANALYZE output is missing or has drifted from the stored data.
		est.SegmentStats = func(name string) *catalog.TableStats {
			tab, ok := e.store.Table(name)
			if !ok {
				return nil
			}
			return stats.SegmentTableStats(tab)
		}
		if !e.opts.DisableZoneMaps {
			// Cost model charges seq scans only the pages of segments the
			// compiled zone predicates cannot eliminate.
			est.ScanPages = func(scan *logical.Scan, filters []logical.Scalar) float64 {
				tab, ok := e.store.Table(scan.Table.Name)
				if !ok {
					return -1
				}
				ords := make([]int, len(scan.Cols))
				for i, id := range scan.Cols {
					ords[i] = md.Column(id).BaseOrd
				}
				preds := exec.CompileScanZonePreds(filters, scan.Cols, ords)
				if p := tab.PrunedPageCount(preds); p >= 0 {
					return float64(p)
				}
				return -1
			}
		}
	}
	return est
}

// optimizeOne optimizes a logical query and reports the planning tier that
// produced the plan (see Result.PlannerTier).
func (e *Engine) optimizeOne(q *logical.Query) (physical.Plan, string, error) {
	model := e.costModel()
	switch e.opts.Optimizer {
	case SystemR:
		opt := systemr.New(e.newEstimator(q.Meta), model, e.opts.SystemR)
		plan, err := opt.Optimize(q)
		return plan, string(opt.Tier), err
	case Starburst:
		inner := systemr.New(e.newEstimator(q.Meta), model, e.opts.SystemR)
		opt := &qgm.Optimizer{
			Engine: qgm.DefaultEngine(),
			Plan:   inner,
		}
		plan, _, err := opt.Optimize(q)
		return plan, string(inner.Tier), err
	case Cascades:
		opt := cascadesopt.New(e.newEstimator(q.Meta), model, e.opts.Cascades)
		plan, err := opt.Optimize(q)
		return plan, "full", err
	}
	return nil, "", fmt.Errorf("queryopt: unknown optimizer %v", e.opts.Optimizer)
}

func (e *Engine) finish(q *logical.Query, plan physical.Plan, res *exec.Result, ctx *exec.Ctx, mv string) *Result {
	out := &Result{
		Columns:              q.ColNames,
		UsedMaterializedView: mv,
		Stats: ExecStats{
			PagesRead:      ctx.Counters.PagesRead,
			RowsProcessed:  ctx.Counters.RowsProcessed,
			IndexSeeks:     ctx.Counters.IndexSeeks,
			SubqueryEvals:  ctx.Counters.SubqueryEvals,
			HashOps:        ctx.Counters.HashOps,
			Comparisons:    ctx.Counters.Comparisons,
			Spills:         ctx.Counters.Spills,
			SpillBytes:     ctx.Counters.SpillBytes,
			PeakMemBytes:   ctx.Mem.Peak(),
			SegmentsRead:   ctx.Counters.SegmentsRead,
			SegmentsPruned: ctx.Counters.SegmentsPruned,
			BytesRead:      ctx.Counters.BytesRead,
			BlocksDict:     ctx.Counters.BlocksDict,
			BlocksRLE:      ctx.Counters.BlocksRLE,
			BlocksPlain:    ctx.Counters.BlocksPlain,
			BlockHits:      ctx.Counters.BlockHits,
		},
	}
	if plan != nil {
		out.Plan = physical.Format(plan, q.Meta)
		out.EstRows, out.EstCost = plan.Estimate()
	}
	if len(res.Rows) > 0 {
		// One backing array for every row's values; each row is capped so an
		// append to it cannot run into the next.
		n := 0
		for _, r := range res.Rows {
			n += len(r)
		}
		vals := make([]any, n)
		out.Rows = make([][]any, len(res.Rows))
		for k, r := range res.Rows {
			row := vals[:len(r):len(r)]
			vals = vals[len(r):]
			for i, d := range r {
				row[i] = toGo(d)
			}
			out.Rows[k] = row
		}
	}
	return out
}

func toGo(d datum.D) any {
	switch d.Kind() {
	case datum.KindNull:
		return nil
	case datum.KindBool:
		return d.Bool()
	case datum.KindInt:
		return d.Int()
	case datum.KindFloat:
		return d.Float()
	case datum.KindString:
		return d.Str()
	}
	return nil
}

// Catalog exposes the engine's catalog for tooling and experiments.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the engine's storage for tooling and experiments.
func (e *Engine) Store() *storage.Store { return e.store }

// Flush seals every table's unsealed tail into segment files, making all
// inserted rows durable (and prunable). A durability operation: a no-op
// without a StorageDir.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.FlushAll()
}

// Corruption is one detected on-disk corruption with coordinates (table,
// segment, region, column). Every Corruption matches ErrSegmentCorrupt under
// errors.Is.
type Corruption = storage.CorruptError

// RecoveryReport describes what opening one disk-backed table found:
// quarantined orphan files, a truncated manifest tail, soft-adopted corrupt
// segments.
type RecoveryReport = storage.RecoveryReport

// ErrSegmentCorrupt is the errors.Is target for detected segment corruption
// anywhere in the engine: block decodes, recovery reports, scrub findings.
var ErrSegmentCorrupt = storage.ErrSegmentCorrupt

// Scrub walks every sealed segment file of every table, verifying the
// footer and every column block checksum, and returns one entry per
// corruption found. Empty means the on-disk state is fully intact. Engines
// without a StorageDir have no files and scrub to nothing.
func (e *Engine) Scrub() []*Corruption {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Scrub()
}

// ScrubDir verifies a storage directory without opening an engine or knowing
// the schema: every table subdirectory's manifest is replayed and each
// listed segment fully checked. The offline form behind `qopt -scrub`.
func ScrubDir(dir string) ([]*Corruption, error) {
	return storage.ScrubDir(dir)
}

// RecoveryReports returns what CREATE TABLE found when (re)opening each
// disk-backed table directory under StorageDir, in creation order.
func (e *Engine) RecoveryReports() []*RecoveryReport {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Recovery()
}

// LoadRows bulk-inserts native Go rows into a table (fast path for
// generators and examples).
func (e *Engine) LoadRows(table string, rows [][]any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tab, ok := e.store.Table(table)
	if !ok {
		return fmt.Errorf("queryopt: unknown table %q", table)
	}
	batch := make([]datum.Row, 0, len(rows))
	for _, r := range rows {
		dr := make(datum.Row, len(r))
		for i, v := range r {
			d, err := fromGo(v)
			if err != nil {
				return err
			}
			dr[i] = d
		}
		batch = append(batch, dr)
	}
	if err := tab.InsertBatch(batch); err != nil {
		return err
	}
	if e.opts.IncrementalStats {
		for _, dr := range batch {
			e.maintainStats(tab.Def, dr)
		}
	}
	return nil
}

func fromGo(v any) (datum.D, error) {
	switch t := v.(type) {
	case nil:
		return datum.Null, nil
	case bool:
		return datum.NewBool(t), nil
	case int:
		return datum.NewInt(int64(t)), nil
	case int64:
		return datum.NewInt(t), nil
	case float64:
		return datum.NewFloat(t), nil
	case string:
		return datum.NewString(t), nil
	}
	return datum.Null, fmt.Errorf("queryopt: unsupported value type %T", v)
}
