// Package exec implements query execution: a push-based morsel executor over
// physical plans (Figure 1 of the paper: a tree of operators data flows
// through as a pipeline). A plan is cut at its breakers — join build sides,
// aggregations, sorts, limits and unions — and everything between two
// breakers runs fused: one loop over ~1024-row morsels carries each morsel
// from its source through filter, projection, exchange and join-probe stages
// into an aggregate or collect sink, materializing nothing in between
// (pipeline.go). Every operator runs on column batches; a plan's output
// becomes rows only at the result (Run, RunPlanQuery). The scheduler in
// parallel.go runs that loop inline (serial execution is one worker) or on a
// worker pool. A subquery the rewrites left in a scalar runs by nested
// iteration, as in System R: its optimized sub-plan (logical.Subquery.Body)
// is run once per outer row, on the worker evaluating the scalar, with the
// outer row's columns bound (evalSubquery). internal/reference holds the
// naive evaluator the tests check this package against.
package exec

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/faultfs"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// Counters tallies the work an execution did, letting experiments compare
// measured work against the cost model's predictions.
type Counters struct {
	RowsProcessed int64 // rows flowing through operators
	IndexSeeks    int64
	SubqueryEvals int64 // sub-plan runs of nested-iteration subqueries
	Comparisons   int64 // sort/merge comparisons
	HashOps       int64 // hash table inserts + probes
	ExchangedRows int64 // rows crossing exchange operators
	Spills        int64 // spill files written by budget-degraded operators
	SpillBytes    int64 // bytes written to spill files

	// Sealed columnar segments a scan read vs eliminated by zone maps (zero
	// for tables that have sealed nothing yet).
	SegmentsRead   int64
	SegmentsPruned int64

	// What the column reads of segment files did: bytes read and blocks read
	// by representation on cache misses, cache hits.
	storage.ReadStats
}

// Ctx is the runtime context shared by all operators of one execution.
type Ctx struct {
	Store    *storage.Store
	Meta     *logical.Metadata
	Counters Counters
	// Parallelism is the worker count of the morsel scheduler (§7.1 made
	// real): values > 1 run scans, filters, joins, hash aggregation and sorts
	// over large enough inputs on that many pool workers. 0 or 1 runs the
	// same operator bodies on one worker, inline.
	Parallelism int
	// Pool is the shared worker pool. When nil it is created lazily, sized
	// Parallelism (or GOMAXPROCS when Parallelism is 0). Set it explicitly to
	// share one pool across many executions; lazily created pools are owned
	// by the Ctx and released by Close.
	Pool    *Pool
	ownPool bool
	// Context, when non-nil, cancels the execution: every operator checks it
	// at morsel boundaries, so a canceled or timed-out query returns the
	// context's error within about one morsel of work. Workers
	// always rejoin their pipeline barrier before the error surfaces — a
	// canceled query leaks no goroutines and its partial counters and metrics
	// are still merged.
	Context context.Context
	// Mem is the query's memory account (shared by all workers). Sort
	// buffers, hash-join builds and hash-aggregation tables reserve their
	// working memory here; when the reservation fails, the operator spills
	// (spill.go): sort merges sorted runs, and hash join and aggregation run
	// once per hash partition of their input. Nil means no accounting.
	Mem *MemAccount
	// Faults, when non-nil, injects errors and latency into storage-scan
	// batches and spill I/O — the fault harness used to prove clean error
	// propagation at any parallelism degree.
	Faults *faultfs.Injector
	// TempDir overrides the directory for spill files (default os.TempDir).
	TempDir string
	// Vectorize says whether kernels are compiled: off, no predicate conjunct
	// gets a typed kernel (every conjunction runs row-at-a-time) and every
	// aggregate accumulates through the row accumulators. It never selects
	// an operator — scans, filters, joins and aggregations are the same
	// either way, and so are their results. NewCtx turns it on.
	Vectorize bool
	// NoPrune disables zone-map segment elimination (every sealed segment is
	// read and filtered) — the control arm of the storage benchmarks.
	NoPrune bool
	// Metrics, when non-nil, collects per-operator runtime metrics (EXPLAIN
	// ANALYZE): actual rows, invocations, morsel batches, wall time, peak
	// buffered rows and per-worker row counts — per plan node, also for the
	// stages fused into one pipeline. Enable with EnableAnalyze. When nil —
	// the default — the analyze hooks cost one pointer check per operator
	// invocation and per morsel, and no clock read, so the instrumented engine
	// stays as fast as the uninstrumented one (BenchmarkExecAnalyzeOff/On
	// measures this).
	Metrics *physical.RunMetrics
	// curNode is the metrics record of the operator currently executing on
	// the coordinating goroutine (nil inside a pipeline's morsel loop, whose
	// nodes are metered per stage). Workers never touch it: per-worker stats
	// travel through child contexts and are folded in at pipeline barriers.
	curNode *physical.NodeMetrics
	// bar is the abort barrier of the runWorkers call this (child) context
	// belongs to; nil on the coordinating context.
	bar *barrier
	// outer binds the columns of the enclosing query's row while this
	// context runs a subquery's sub-plan: every env the plan's scalars are
	// evaluated in chains to it. Nil for a top-level plan.
	outer *env
	// params are the statement's parameter bindings (Program.Run): every
	// parameter-tagged constant and index key of the plan reads its value
	// here. Nil runs the plan on the values it holds.
	params []datum.D
}

// EnableAnalyze turns on per-operator metrics collection for executions
// through this context, returning the collection that Run fills.
func (c *Ctx) EnableAnalyze() *physical.RunMetrics {
	if c.Metrics == nil {
		c.Metrics = physical.NewRunMetrics()
	}
	return c.Metrics
}

// noteMem records a peak-buffered-rows observation (hash-table build sizes,
// group tables, sort buffers) against the operator currently being analyzed.
func (c *Ctx) noteMem(n int64) {
	if c.curNode != nil {
		c.curNode.NoteMem(n)
	}
}

// noteMemBytes records a peak-working-memory observation in bytes — the
// metric EXPLAIN ANALYZE derives from the memory account's reservations.
func (c *Ctx) noteMemBytes(n int64) {
	if c.curNode != nil {
		c.curNode.NoteMemBytes(n)
	}
}

// noteSpill records spill activity (files written, bytes) against both the
// execution counters and the operator currently being analyzed.
func (c *Ctx) noteSpill(files, bytes int64) {
	c.Counters.Spills += files
	c.Counters.SpillBytes += bytes
	if c.curNode != nil {
		c.curNode.NoteSpill(files, bytes)
	}
}

// noteSegments records segment-elimination outcomes against both the
// execution counters and the operator currently being analyzed.
func (c *Ctx) noteSegments(read, pruned int64) {
	c.Counters.SegmentsRead += read
	c.Counters.SegmentsPruned += pruned
	if c.curNode != nil {
		c.curNode.SegmentsRead += read
		c.curNode.SegmentsPruned += pruned
	}
}

// noteScan folds one storage call's ScanCtx observations — segment-file
// bytes and blocks read, cache hits — into the counters and the analyzed
// node. Workers have no analyzed node: the runWorkers barrier credits it
// with their counters.
func (c *Ctx) noteScan(sc *storage.ScanCtx) {
	c.Counters.ReadStats.Add(sc.ReadStats)
	if m := c.curNode; m != nil {
		m.ReadStats.Add(sc.ReadStats)
	}
}

// The storage read API — column fills and the lazy build of an index — takes
// a per-call ScanCtx carrying the fault injector and returning real bytes
// read; these wrappers thread both ends so operators keep one-line calls.

func (c *Ctx) fillRange(tab *storage.Table, ord, lo, hi int, v *datum.Vec) error {
	sc := storage.ScanCtx{Faults: c.Faults}
	defer c.noteScan(&sc)
	return tab.FillColumnRange(&sc, ord, lo, hi, v)
}

func (c *Ctx) fillIDs(tab *storage.Table, ord int, ids []int, v *datum.Vec) error {
	sc := storage.ScanCtx{Faults: c.Faults}
	defer c.noteScan(&sc)
	return tab.FillColumnIDs(&sc, ord, ids, v)
}

func (c *Ctx) index(table, name string) (*storage.Table, *storage.IndexData, error) {
	tab, ok := c.Store.Table(table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: no storage for table %s", table)
	}
	sc := storage.ScanCtx{Faults: c.Faults}
	defer c.noteScan(&sc)
	ix, err := tab.Index(&sc, name)
	return tab, ix, err
}

// canceled returns the context's error once the execution has been canceled
// or has exceeded its deadline, nil otherwise. Cheap enough for batch
// boundaries (one atomic load inside Context.Err).
func (c *Ctx) canceled() error {
	if c.Context == nil {
		return nil
	}
	return context.Cause(c.Context)
}

// step is the per-batch governor checkpoint: fault injection on the named
// operation stream first (so injected latency is felt before cancellation is
// observed), then cancellation.
func (c *Ctx) step(op string) error {
	if c.Faults != nil {
		if err := c.Faults.Check(op); err != nil {
			return err
		}
	}
	return c.canceled()
}

// NewCtx returns a context over the given store and metadata, kernels on.
func NewCtx(store *storage.Store, md *logical.Metadata) *Ctx {
	return &Ctx{Store: store, Meta: md, Vectorize: true}
}

// Close releases a lazily created worker pool. It is safe to call on any
// Ctx, including serial ones.
func (c *Ctx) Close() {
	if c.ownPool && c.Pool != nil {
		c.Pool.Close()
		c.Pool = nil
		c.ownPool = false
	}
}

// child returns a per-worker context sharing the store, metadata and the
// governor state (cancellation context, memory account, fault injector) but
// owning private counters, so workers never race on mutable state. Anything
// a worker runs through its own context stays inline on that worker
// (Parallelism 0).
func (c *Ctx) child() *Ctx {
	return &Ctx{
		Store: c.Store, Meta: c.Meta,
		Context: c.Context, Mem: c.Mem, Faults: c.Faults, TempDir: c.TempDir,
		Vectorize: c.Vectorize, NoPrune: c.NoPrune, outer: c.outer, params: c.params,
	}
}

// add folds another worker's counters into c — called only at pipeline
// barriers, after the worker has finished.
func (cs *Counters) add(o Counters) {
	cs.RowsProcessed += o.RowsProcessed
	cs.IndexSeeks += o.IndexSeeks
	cs.SubqueryEvals += o.SubqueryEvals
	cs.Comparisons += o.Comparisons
	cs.HashOps += o.HashOps
	cs.ExchangedRows += o.ExchangedRows
	cs.Spills += o.Spills
	cs.SpillBytes += o.SpillBytes
	cs.SegmentsRead += o.SegmentsRead
	cs.SegmentsPruned += o.SegmentsPruned
	cs.ReadStats.Add(o.ReadStats)
}

// Result is a materialized relation: a layout and rows in that layout.
type Result struct {
	Cols []logical.ColumnID
	Rows []datum.Row
}

// env binds column IDs to values for scalar evaluation; parent chains
// implement correlation into outer query blocks.
type env struct {
	cols   map[logical.ColumnID]int
	row    datum.Row
	parent *env
}

func newEnv(layout []logical.ColumnID, parent *env) *env {
	m := make(map[logical.ColumnID]int, len(layout))
	for i, c := range layout {
		m[c] = i
	}
	return &env{cols: m, parent: parent}
}

func (e *env) lookup(id logical.ColumnID) (datum.D, error) {
	for cur := e; cur != nil; cur = cur.parent {
		if i, ok := cur.cols[id]; ok {
			if i >= len(cur.row) {
				return datum.Null, fmt.Errorf("exec: row too short for column @%d", int(id))
			}
			return cur.row[i], nil
		}
	}
	return datum.Null, fmt.Errorf("exec: unbound column @%d", int(id))
}

// evalCtx builds a logical.EvalContext over an env, wiring subquery
// evaluation to evalSubquery.
func (c *Ctx) evalCtx(e *env) *logical.EvalContext {
	return &logical.EvalContext{
		Lookup: e.lookup,
		EvalSubquery: func(sub *logical.Subquery, _ *logical.EvalContext) (datum.D, error) {
			return c.evalSubquery(sub, e)
		},
		Params: c.params,
	}
}

// evalSubquery evaluates a subquery for the row bound in e by nested
// iteration: its sub-plan runs to completion on this worker at degree 1 —
// never re-entering the pool — under the statement's cancellation, memory
// account and fault injector, with e as the outer binding of its correlated
// columns. Its rows become the subquery's value under three-valued logic.
func (c *Ctx) evalSubquery(sub *logical.Subquery, e *env) (datum.D, error) {
	body, ok := sub.Body.(physical.Plan)
	if !ok {
		return datum.Null, fmt.Errorf("exec: subquery %s has no sub-plan", sub)
	}
	c.Counters.SubqueryEvals++
	sc := c.child()
	sc.bar, sc.outer = c.bar, e
	res, err := Run(body, sc)
	c.Counters.add(sc.Counters)
	if err != nil {
		return datum.Null, err
	}
	switch sub.Mode {
	case logical.SubExists:
		return datum.NewBool(len(res.Rows) > 0), nil
	case logical.SubIn:
		val, err := logical.Eval(sub.Scalar, c.evalCtx(e))
		if err != nil {
			return datum.Null, err
		}
		off := max(slices.Index(res.Cols, sub.OutCol), 0)
		sawNull := val.IsNull()
		for _, r := range res.Rows {
			if off >= len(r) {
				continue
			}
			if r[off].IsNull() || val.IsNull() {
				sawNull = true
				continue
			}
			if datum.Compare(val, r[off]) == 0 {
				return datum.NewBool(true), nil
			}
		}
		if sawNull && len(res.Rows) > 0 {
			return datum.Null, nil
		}
		return datum.NewBool(false), nil
	case logical.SubScalar:
		switch len(res.Rows) {
		case 0:
			return datum.Null, nil
		case 1:
			off := max(slices.Index(res.Cols, sub.OutCol), 0)
			if off >= len(res.Rows[0]) {
				return datum.Null, nil
			}
			return res.Rows[0][off], nil
		default:
			return datum.Null, fmt.Errorf("exec: scalar subquery returned %d rows", len(res.Rows))
		}
	}
	return datum.Null, fmt.Errorf("exec: unknown subquery mode %v", sub.Mode)
}

// allTrue evaluates a conjunction against an evaluation context, stopping at
// the first conjunct that is not TRUE.
func allTrue(preds []logical.Scalar, ectx *logical.EvalContext) (bool, error) {
	for _, p := range preds {
		v, err := logical.Eval(p, ectx)
		if err != nil {
			return false, err
		}
		if !logical.TruthValue(v) {
			return false, nil
		}
	}
	return true, nil
}
