// Push-based morsel pipelines. A plan is cut at its breakers — the build side
// of a hash join, an aggregation, a sort, a limit, a union, and the result —
// and everything between two breakers is one pipeline: one forMorsels loop
// whose body carries a morsel from its source (a table or index scan, or the
// materialized output of the breaker below) through the streaming stages
// above it (filter, projection, the probe side of every join up the spine)
// into one sink. Nothing is materialized between stages: a stage hands the
// next a batch over its worker's scratch — the source's
// column vectors under a refined selection, or the columns a probe or an
// expression projection gathered — and a column no later stage reads is never
// loaded or gathered at all.
//
// There are two sinks. collect concatenates the morsels' survivors in morsel
// order into the materialized Batch a breaker above consumes; the aggregate
// sink (vector.go) feeds thread-local group tables folded at the one barrier
// — or, for stream aggregation, one table fed in morsel order.
package exec

import (
	"time"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// source produces the morsels of a pipeline: rows is the size of the space
// forMorsels cuts, morsel the batch of positions [lo, hi) on worker w — nil
// when nothing of it survives. bind says which columns of the layout a later
// stage reads; only those need valid vectors.
type source interface {
	rows() int
	bind(need []bool, workers int)
	morsel(wc *Ctx, pw *pipeWorker, w, lo, hi int) (*Batch, error)
}

// stage is a streaming operator. bind is told which of its output columns are
// read above it (and how many workers will call run) and returns the input
// columns it therefore reads; run maps one morsel to the next stage's, on
// scratch owned by worker w and valid until w's next morsel.
type stage interface {
	bind(need []bool, workers int) []bool
	run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error)
}

// sink ends a pipeline: consume is called on the worker w that owns morsel m
// with the morsel's non-empty batch as the last stage left it.
type sink interface {
	consume(wc *Ctx, pw *pipeWorker, w, m int, b *Batch) error
}

// stageStats is what one worker observed of one plan node under EXPLAIN
// ANALYZE.
type stageStats struct{ rowsOut, batches, rowsProcessed, nanos int64 }

// pipeWorker is the scratch every stage of one worker shares. It is sized for
// the pipeline's largest morsel — the whole input when that is under
// MorselSize, so a short statement allocates for the rows it has.
type pipeWorker struct {
	morsel int
	ident  []int32
	hs     []uint64
}

// scratch is the capacity to allocate for n rows of per-morsel scratch: room
// for every morsel of the pipeline, and for n if a join expanded it past that.
func (pw *pipeWorker) scratch(n int) int { return max(n, pw.morsel) }

// identity returns the selection [0, n). Its contents never change, so the
// slice stays valid across calls.
func (pw *pipeWorker) identity(n int) []int32 {
	if len(pw.ident) < n {
		pw.ident = make([]int32, pw.scratch(n))
		for i := range pw.ident {
			pw.ident[i] = int32(i)
		}
	}
	return pw.ident[:n]
}

// live returns the batch's live row indices.
func (pw *pipeWorker) live(b *Batch) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return pw.identity(b.n)
}

// hashes returns n key-hash accumulators, initialized.
func (pw *pipeWorker) hashes(n int) []uint64 {
	if cap(pw.hs) < n {
		pw.hs = make([]uint64, pw.scratch(n))
	}
	hs := pw.hs[:n]
	datum.HashInit(hs)
	return hs
}

// pipeline is a source and the stages above it. nodes[0] is the source's
// plan node and nodes[i+1] stage i's. A pipeline of one or two nodes on one
// worker — every short statement's — is one allocation: nodes, stages and
// workers start out in the struct's own arrays.
type pipeline struct {
	c       *Ctx
	src     source
	stages  []stage
	nodes   []physical.Plan
	release []func() // reservations held while the pipeline can run (join builds)
	expands bool     // a stage may emit more rows than it is given
	srcDone bool     // nodes[0] is a breaker that has reported itself to EXPLAIN ANALYZE
	serial  bool     // run on one worker, morsels in order (stream aggregation)
	workers []pipeWorker
	an      *pipeAnalysis // nil unless analyzing

	nodeBuf   [2]physical.Plan
	stageBuf  [1]stage
	workerBuf [1]pipeWorker
	one       handOver // the sink of a single-morsel collect
}

// pipeAnalysis is what a pipeline keeps under EXPLAIN ANALYZE only: its tag,
// when work on it began, the wall time of work done for node i outside the
// morsel loop (an index seek, materializing a breaker, building a join table
// and its input), the counters as the morsel loop found them and what worker
// w observed of node i, stats[w][i].
type pipeAnalysis struct {
	id       int
	start    time.Time
	outside  []int64
	readBase Counters
	stats    [][]stageStats
}

// tick reads the clock when analyzing, and only then.
func (c *Ctx) tick() (t time.Time) {
	if c.Metrics != nil {
		t = time.Now()
	}
	return t
}

// newPipeline starts a pipeline at src, the output of plan node node, which
// the caller has been working on since began (a tick).
func (c *Ctx) newPipeline(node physical.Plan, src source, began time.Time) *pipeline {
	p := &pipeline{c: c, src: src}
	p.nodes, p.stages = append(p.nodeBuf[:0], node), p.stageBuf[:0]
	if c.Metrics != nil {
		p.an = &pipeAnalysis{id: c.Metrics.NewPipeline(), start: began, outside: []int64{time.Since(began).Nanoseconds()}}
	}
	return p
}

func (p *pipeline) add(node physical.Plan, st stage) *pipeline {
	p.stages, p.nodes = append(p.stages, st), append(p.nodes, node)
	if p.an != nil {
		p.an.outside = append(p.an.outside, 0)
	}
	return p
}

// close returns what the pipeline reserved; safe to call twice.
func (p *pipeline) close() {
	for _, f := range p.release {
		f()
	}
	p.release = nil
}

// layout is the pipeline's output layout.
func (p *pipeline) layout() []logical.ColumnID { return p.nodes[len(p.nodes)-1].Columns() }

// degree is the number of workers run drives the morsels on.
func (p *pipeline) degree() int {
	if p.serial {
		return 1
	}
	return p.c.morselWorkers(p.src.rows())
}

// run pushes every morsel through the stages into sk. need marks the output
// columns the sink reads.
func (p *pipeline) run(need []bool, sk sink) error {
	c, n, nw := p.c, p.src.rows(), p.degree()
	for i := len(p.stages) - 1; i >= 0; i-- {
		need = p.stages[i].bind(need, nw)
	}
	p.src.bind(need, nw)
	if p.workers = p.workerBuf[:]; nw > 1 {
		p.workers = make([]pipeWorker, nw)
	}
	for w := range p.workers {
		p.workers[w].morsel = min(n, MorselSize)
	}
	if an := p.an; an != nil {
		an.readBase, an.stats = c.Counters, make([][]stageStats, nw)
		for w := range an.stats {
			an.stats[w] = make([]stageStats, len(p.stages)+2)
		}
	}
	// Nodes are metered per stage below, not through the operator being
	// analyzed around this call.
	prev := c.curNode
	c.curNode = nil
	defer func() { c.curNode = prev }()
	return c.forMorsels(n, nw, func(wc *Ctx, m, lo, hi int) error {
		w := m % len(p.workers)
		pw, timed := &p.workers[w], p.an != nil
		var t0 time.Time
		var rp int64
		// note closes the books of node i on this morsel.
		note := func(i int, out *Batch) {
			s, now := &p.an.stats[w][i], time.Now()
			s.nanos += now.Sub(t0).Nanoseconds()
			s.rowsProcessed += wc.Counters.RowsProcessed - rp
			s.batches++
			if out != nil {
				s.rowsOut += int64(out.NumRows())
			}
			t0, rp = now, wc.Counters.RowsProcessed
		}
		if timed {
			t0, rp = time.Now(), wc.Counters.RowsProcessed
		}
		b, err := p.src.morsel(wc, pw, w, lo, hi)
		if timed {
			note(0, b)
		}
		for i := 0; err == nil && i < len(p.stages) && b != nil && b.NumRows() > 0; i++ {
			b, err = p.stages[i].run(wc, pw, w, b)
			if timed {
				note(i+1, b)
			}
		}
		if err != nil || b == nil || b.NumRows() == 0 {
			return err
		}
		err = sk.consume(wc, pw, w, m, b)
		if timed {
			note(len(p.stages)+1, nil)
		}
		return err
	})
}

// --- the collect sink ---

// newVecLike returns an empty vector of src's representation with room for
// reserve rows.
func newVecLike(src *datum.Vec, reserve int) *datum.Vec {
	if src.Boxed() {
		return datum.NewAnyVec(reserve)
	}
	v := datum.NewVec(src.Kind(), reserve)
	v.Dict = src.Dict
	return v
}

// appendLive appends b's live rows of column src to dst.
func appendLive(dst, src *datum.Vec, b *Batch) {
	if b.Sel != nil {
		datum.AppendGather(dst, src, b.Sel, 0)
	} else {
		dst.AppendRange(src, 0, b.n)
	}
}

// collector is the collect sink over more than one morsel: every worker
// appends its morsels' survivors to output vectors of its own, created by its
// first morsel, and counts[m] remembers how many rows morsel m contributed.
type collector struct {
	reserve int
	outs    [][]*datum.Vec
	counts  []int
}

func (k *collector) consume(_ *Ctx, _ *pipeWorker, w, m int, b *Batch) error {
	k.counts[m] = b.NumRows()
	if k.outs[w] == nil {
		k.outs[w] = make([]*datum.Vec, len(b.Vecs))
		for ci, v := range b.Vecs {
			k.outs[w][ci] = newVecLike(v, k.reserve)
		}
	}
	for ci, v := range k.outs[w] {
		appendLive(v, b.Vecs[ci], b)
	}
	return nil
}

// handOver is the collect sink of a single-morsel pipeline: it keeps the one
// batch.
type handOver struct{ b *Batch }

func (h *handOver) consume(_ *Ctx, _ *pipeWorker, _, _ int, b *Batch) error {
	h.b = b
	return nil
}

// collect runs the pipeline to completion and materializes its output, the
// morsels' survivors in morsel order — the same row sequence at every worker
// count. A single-morsel pipeline's output is its one batch as the last stage
// left it, selection vector included: no copy. One worker appends straight
// into the output vectors; several append to their own and the morsels are
// stitched together afterwards, one column per worker turn.
func (p *pipeline) collect() (*Batch, error) {
	c, cols, n := p.c, p.layout(), p.src.rows()
	nm, nw := numMorsels(n), p.degree()
	need := everyCol[:min(len(cols), len(everyCol))]
	for len(need) < len(cols) { // past everyCol's capacity: a copy
		need = append(need, true)
	}
	if nm <= 1 {
		if err := p.run(need, &p.one); err != nil {
			return nil, err
		}
		p.report(nil, 0)
		if p.one.b == nil {
			return emptyBatch(cols), nil
		}
		p.one.b.Cols = cols
		return p.one.b, nil
	}
	// Output vectors are sized from the optimizer's estimate, capped by what
	// the source can deliver — which is also the size without an estimate.
	est, _ := p.nodes[len(p.nodes)-1].Estimate()
	reserve := int(min(est, 1<<20))
	if reserve <= 0 || (reserve > n && !p.expands) {
		reserve = n
	}
	k := &collector{reserve: (reserve + nw - 1) / nw, outs: make([][]*datum.Vec, nw), counts: make([]int, nm)}
	if err := p.run(need, k); err != nil {
		return nil, err
	}
	out := emptyBatch(cols)
	for _, rows := range k.counts {
		out.n += rows
	}
	var err error
	switch {
	case out.n == 0:
	case nw == 1:
		out.Vecs = k.outs[0]
	default:
		err = c.forColumns(out.n, len(cols), func(_ *Ctx, ci int) error {
			var v *datum.Vec
			at := make([]int, nw)
			for m, rows := range k.counts {
				if w := m % nw; rows > 0 {
					if v == nil {
						v = newVecLike(k.outs[w][ci], out.n)
					}
					v.AppendRange(k.outs[w][ci], at[w], at[w]+rows)
					at[w] += rows
				}
			}
			out.Vecs[ci] = v
			return nil
		})
	}
	p.report(nil, 0)
	return out, err
}

// everyCol backs the need set of a collect, which reads every column. A
// stage copies the need set it is given before it marks more, so one array
// serves every pipeline.
var everyCol = func() (a [64]bool) {
	for i := range a {
		a[i] = true
	}
	return a
}()

// emptyBatch returns a batch of no rows over cols.
func emptyBatch(cols []logical.ColumnID) *Batch {
	out := &Batch{Cols: cols, Vecs: make([]*datum.Vec, len(cols))}
	for ci := range out.Vecs {
		out.Vecs[ci] = datum.NewVec(datum.KindNull, 0)
	}
	return out
}

// --- EXPLAIN ANALYZE ---

// report folds the workers' per-node statistics of the run that just finished
// into the plan nodes' metrics. A node's wall time is inclusive: the slowest
// worker's time in the node itself, the work done for it outside the morsel
// loop, and everything below it; the last node's is the whole time since the
// pipeline was opened. sink is the plan node of the sink, which emitted
// sinkRows rows — nil for collect, whose time goes to the top stage.
func (p *pipeline) report(sink physical.Plan, sinkRows int) {
	rm, an := p.c.Metrics, p.an
	if an == nil {
		return
	}
	top := len(p.nodes) - 1
	if sink != nil {
		top++
	}
	wall := time.Since(an.start).Nanoseconds()
	var below int64
	for i := 0; i <= top; i++ {
		var rows, batches, slowest int64
		for w := range p.workers {
			s := &an.stats[w][i]
			rows, batches, slowest = rows+s.rowsOut, batches+s.batches, max(slowest, s.nanos)
		}
		if i == 0 && p.srcDone {
			below = an.outside[0]
			continue
		}
		node := sink
		if i < len(p.nodes) {
			node = p.nodes[i]
			below += an.outside[i]
		} else {
			rows = int64(sinkRows)
		}
		if below += slowest; i == top {
			below = max(below, wall)
		}
		m := rm.Node(node)
		m.Invocations++
		m.Pipeline = an.id
		m.ActualRows += rows
		m.Batches += batches
		m.WallNanos += below
		if i == 0 {
			// A scan counts the morsels of its table, like every metric of its
			// input size, and all storage reads of the loop are its.
			m.Batches += int64(numMorsels(p.src.rows())) - batches
			m.ReadStats.Add(p.c.Counters.ReadStats.Since(an.readBase.ReadStats))
		}
		if len(p.workers) > 1 {
			for w := range p.workers {
				if rp := an.stats[w][i].rowsProcessed; rp > 0 {
					m.AddWorkerRows(w, rp)
				}
			}
		}
	}
}
