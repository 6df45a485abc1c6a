// The joins, on batches. Every join kind's rules — what a match emits, what an
// unmatched left row emits, that a semi or anti join stops at its first match,
// which build rows a FULL OUTER join pads at the end — live once, in pairJoin,
// over (left row, right row) index pairs: a join emits pairs and gathers from
// them the columns a later stage reads. The joins differ only in how they
// find a left row's candidates:
//
//   - the hash join probes its key's chain in a hashTable over the collected
//     right input (probeStage);
//   - the nested-loop join tests its ON conjunction on every right row, one
//     block of right rows at a time, on the predicate kernels (nlStage);
//   - the index nested-loop join seeks the inner table's index with the left
//     row's key and fetches the entries' columns once per morsel (inlStage);
//   - the merge join searches its key's group in the key-ordered right input
//     (mergeStage).
//
// All four are stages on the left input's pipeline: the left streams by
// morsel through them on every worker, and their output streams on into the
// stages above. What a join needs first — the right input run to completion,
// a hash table over it, the index — is made when the pipeline is opened.
package exec

import (
	"slices"
	"time"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// matchedSets tracks which right rows found a join partner — the state
// behind FULL OUTER's unmatched-right pass; nil for every other join kind.
// Worker w owns set w, so probes never synchronize.
type matchedSets [][]bool

func newMatchedSets(kind logical.JoinKind, workers, rightRows int) matchedSets {
	if kind != logical.FullOuterJoin {
		return nil
	}
	s := make(matchedSets, workers)
	for w := range s {
		s[w] = make([]bool, rightRows)
	}
	return s
}

func (s matchedSets) mark(w, ri int) {
	if s != nil {
		s[w][ri] = true
	}
}

// any reports whether some worker matched right row ri.
func (s matchedSets) any(ri int) bool {
	for _, set := range s {
		if set[ri] {
			return true
		}
	}
	return false
}

// pairJoin is what every join shares: the kind's emission rules, the join
// predicate beside the keys (extra — a nested-loop join's whole ON), and the
// gathering of the output. right is the materialized right input (nil for
// the index join, whose right rows are fetched per morsel).
type pairJoin struct {
	kind       logical.JoinKind
	semiShape  bool // semi or anti: one match decides, no right columns
	cols       []logical.ColumnID
	nLeft      int
	lKeys      []int // the left key columns
	right      *Batch
	extra      conjunction
	extraReads []bool // columns of the left+right layout extra reads; nil without one
	need       []bool
	matched    matchedSets
	ws         []probeScratch
}

// probeScratch is one worker's output pairs and vectors, and the pair batch
// the extra predicate is tested on.
type probeScratch struct {
	lIdx, rIdx []int32
	found      bool // the current left row has matched
	keys       keyMatch
	vecs       []*datum.Vec
	out        Batch
	pair       Batch    // over the left+right layout; its vectors are gather scratch
	pairIdx    [2]int32 // the pair's left and right row
	bcast      []int32  // a nested-loop join's left row, once per right row
	conj       conjScratch
	// An index join's seeks of one morsel: the entries' row ids, where each
	// left row's begin, the key sought and the fetched inner columns.
	ids     []int
	start   []int32
	key     datum.Row
	fetched Batch
}

func (c *Ctx) newPairJoin(kind logical.JoinKind, left, right, cols []logical.ColumnID, on []logical.Scalar) pairJoin {
	j := pairJoin{kind: kind, semiShape: kind == logical.SemiJoin || kind == logical.AntiJoin, cols: cols, nLeft: len(left)}
	if len(on) > 0 {
		pair := append(append([]logical.ColumnID{}, left...), right...)
		j.extra, j.extraReads = c.newConjunction(on, pair), make([]bool, len(pair))
		j.extra.reads(j.extraReads)
	}
	return j
}

// bind sets up the workers' scratch and returns the left columns the join
// reads: those needed above it, its keys and what extra reads.
func (j *pairJoin) bind(need []bool, workers int) []bool {
	j.need, j.ws = need, make([]probeScratch, workers)
	if j.right != nil {
		j.matched = newMatchedSets(j.kind, workers, j.right.n)
	}
	in := append([]bool(nil), need[:j.nLeft]...)
	for _, o := range j.lKeys {
		in[o] = true
	}
	for o, read := range j.extraReads {
		if read && o < j.nLeft {
			in[o] = true
		}
	}
	return in
}

// scratch returns worker w's scratch with no pair emitted yet.
func (j *pairJoin) scratch(w int) *probeScratch {
	sc := &j.ws[w]
	if sc.vecs == nil {
		sc.vecs = make([]*datum.Vec, len(j.need))
		sc.out.Cols, sc.out.Vecs = j.cols, make([]*datum.Vec, len(j.need))
	}
	sc.lIdx, sc.rIdx = sc.lIdx[:0], sc.rIdx[:0]
	return sc
}

// try tests the candidate pair of left row li of in and right row ri of
// right — the extra predicate, if any — and emits it when it joins. It
// reports whether li is done: a semi or anti join needs one match.
func (j *pairJoin) try(wc *Ctx, pw *pipeWorker, w int, sc *probeScratch, in, right *Batch, li, ri int32) (bool, error) {
	wc.Counters.RowsProcessed++
	if j.extraReads != nil {
		if ok, err := j.holds(wc, pw, sc, in, right, li, ri); err != nil || !ok {
			return false, err
		}
	}
	sc.found = true
	j.matched.mark(w, int(ri))
	if j.semiShape {
		return true, nil
	}
	sc.lIdx, sc.rIdx = append(sc.lIdx, li), append(sc.rIdx, ri)
	return false, nil
}

// end emits what left row li's candidates leave to emit: the row itself for a
// semi join that matched or an anti join that did not, the row padded with
// NULLs (right row -1) for an outer join that did not match.
func (j *pairJoin) end(sc *probeScratch, li int32) {
	switch {
	case j.semiShape:
		if sc.found == (j.kind == logical.SemiJoin) {
			sc.lIdx = append(sc.lIdx, li)
		}
	case !sc.found && j.kind != logical.InnerJoin:
		sc.lIdx, sc.rIdx = append(sc.lIdx, li), append(sc.rIdx, -1)
	}
}

// holds tests the extra predicate on the pair of left row li of in and right
// row ri of right: the columns it reads are gathered into the worker's
// one-row pair batch, and the conjunction runs over that.
func (j *pairJoin) holds(wc *Ctx, pw *pipeWorker, sc *probeScratch, in, right *Batch, li, ri int32) (bool, error) {
	if sc.pair.Vecs == nil {
		sc.pair = Batch{Cols: j.extra.layout, Vecs: make([]*datum.Vec, len(j.extraReads)), n: 1}
	}
	sc.pair.n, sc.pairIdx = 1, [2]int32{li, ri}
	for ci, read := range j.extraReads {
		switch {
		case !read:
		case ci < j.nLeft:
			gatherInto(&sc.pair.Vecs[ci], in.Vecs[ci], sc.pairIdx[:1])
		default:
			gatherInto(&sc.pair.Vecs[ci], right.Vecs[ci-j.nLeft], sc.pairIdx[1:])
		}
	}
	sel, err := j.extra.apply(wc, &sc.conj, &sc.pair, pw.identity(1), noLoad, false)
	return len(sel) > 0, err
}

// output gathers the emitted pairs' columns that are read above the join;
// right row -1 gathers NULL.
func (j *pairJoin) output(sc *probeScratch, in, right *Batch) *Batch {
	b := &sc.out
	b.Sel, b.n = nil, len(sc.lIdx)
	for ci, need := range j.need {
		switch {
		case !need:
		case ci < j.nLeft:
			b.Vecs[ci] = gatherInto(&sc.vecs[ci], in.Vecs[ci], sc.lIdx)
		default:
			b.Vecs[ci] = gatherInto(&sc.vecs[ci], right.Vecs[ci-j.nLeft], sc.rIdx)
		}
	}
	return b
}

// withUnmatched appends to a FULL OUTER join's collected output the right
// rows no worker matched, NULL-padded on the left, in right order.
func (j *pairJoin) withUnmatched(out *Batch) *Batch {
	var rIdx []int32
	for _, ri := range new(pipeWorker).live(j.right) {
		if !j.matched.any(int(ri)) {
			rIdx = append(rIdx, ri)
		}
	}
	if len(rIdx) == 0 {
		return out
	}
	pad := make([]int32, len(rIdx))
	for k := range pad {
		pad[k] = -1
	}
	res := &Batch{Cols: out.Cols, Vecs: make([]*datum.Vec, len(out.Vecs)), n: out.NumRows() + len(rIdx)}
	for ci, v := range out.Vecs {
		// The collected rows first (compacted if they carry a selection), then
		// the padding: left columns all NULL, right columns the unmatched rows.
		nv := newVecLike(v, res.n)
		appendLive(nv, v, out)
		if ci < j.nLeft {
			datum.AppendGather(nv, v, pad, 0)
		} else {
			datum.AppendGather(nv, j.right.Vecs[ci-j.nLeft], rIdx, 0)
		}
		res.Vecs[ci] = nv
	}
	return res
}

// joinStage is a join that streams its left input.
type joinStage interface {
	stage
	withUnmatched(out *Batch) *Batch
}

// openJoin opens the left input's pipeline and puts the probe of the join
// node on it, after running what the probe needs first: the right input to
// completion (a hash join also builds its table), or the index. A key column
// missing from its input is an execution error. A hash join's build side over
// budget runs the same join per partition (graceJoin), and a FULL OUTER join
// ends its pipeline — its unmatched right rows follow the last morsel — so
// both hand the stages above a materialized batch.
func (c *Ctx) openJoin(node physical.Plan) (*pipeline, error) {
	var left, right physical.Plan
	var kind logical.JoinKind
	switch t := node.(type) {
	case *physical.HashJoin:
		left, right, kind = t.Left, t.Right, t.Kind
	case *physical.NLJoin:
		left, right, kind = t.Left, t.Right, t.Kind
	case *physical.MergeJoin:
		left, right, kind = t.Left, t.Right, t.Kind
	case *physical.INLJoin:
		left, kind = t.Left, t.Kind
	}
	began := c.tick()
	pl, err := c.open(left)
	if err != nil {
		return nil, err
	}
	defer c.leave(c.enter(node))
	fail := func(err error) (*pipeline, error) {
		pl.close()
		return nil, err
	}
	// handOff ends the join at a materialized batch, the source of whatever
	// streams above it.
	handOff := func(b *Batch) *pipeline {
		pl.close()
		out := c.newPipeline(node, &batchSource{in: b}, began)
		out.srcDone = true
		return out
	}
	built := c.tick()
	var rb *Batch
	if right != nil {
		if rb, err = c.run(right); err != nil {
			return fail(err)
		}
	}
	var st joinStage
	switch t := node.(type) {
	case *physical.HashJoin:
		c.noteVectorized()
		lOff, err := colOffsets(t.Left.Columns(), t.LeftKeys, "key")
		if err != nil {
			return fail(err)
		}
		rOff, err := colOffsets(t.Right.Columns(), t.RightKeys, "key")
		if err != nil {
			return fail(err)
		}
		buildBytes := batchRowBytes(rb)
		if err := c.Mem.Grow("hash join build", buildBytes); err != nil {
			lb, err := pl.collect()
			if err != nil {
				return fail(err)
			}
			out, err := c.graceJoin(t, lb, rb, lOff, rOff)
			if err != nil {
				return fail(err)
			}
			c.noteFallback(pl, began, out.NumRows())
			return handOff(out), nil
		}
		ps := c.newProbeStage(t, rb, lOff, rOff)
		held := buildBytes + ps.direct.bytes
		pl.release = append(pl.release, func() { c.Mem.Shrink(held) })
		c.noteMemBytes(held)
		st = ps
	case *physical.NLJoin:
		st = c.newNLStage(t, rb)
	case *physical.MergeJoin:
		if st, err = c.newMergeStage(t, rb); err != nil {
			return fail(err)
		}
	case *physical.INLJoin:
		if st, err = c.newINLStage(t); err != nil {
			return fail(err)
		}
	}
	pl.add(node, st)
	if pl.an != nil {
		pl.an.outside[len(pl.an.outside)-1] = time.Since(built).Nanoseconds()
	}
	switch kind {
	case logical.InnerJoin, logical.LeftOuterJoin:
		pl.expands = true
	case logical.FullOuterJoin:
		probed, err := pl.collect()
		if err != nil {
			return fail(err)
		}
		out := st.withUnmatched(probed)
		if m := c.curNode; m != nil {
			m.ActualRows += int64(out.NumRows() - probed.NumRows())
		}
		return handOff(out), nil
	}
	return pl, nil
}

// --- hash join ---

// probeStage is the probe side of a hash join: one hash table on the
// collected right input, shared read-only by every worker, probed with the
// left's morsels as they stream by. A key-equal candidate is tested against
// the extra predicate in chain order — a semi or anti join stops at its first
// match — so exactly the pairs a row-at-a-time probe tests are evaluated; an
// inner join without one emits its candidates as they come.
//
// A single INT build key whose entries are unique and dense is also mapped
// directly: direct.slots[k-lo] is 1 + the entry of key k in [lo, hi], 0 where
// no entry has it. A left INT key then finds its one candidate, if any, by a
// range test and an index, without hashing or walking a chain.
type probeStage struct {
	pairJoin
	rKeys     []int
	table     hashTable
	buildRows []int32 // per table entry: its row in right
	direct    denseMap
	lo, hi    int64
}

// newProbeStage builds t's hash table over the build rows right: entry e of
// the table is the e-th build row with a non-NULL key, in selection order,
// and chains keep that order, so every probe sees its matches in the serial
// row order.
func (c *Ctx) newProbeStage(t *physical.HashJoin, right *Batch, lOff, rOff []int) *probeStage {
	st := &probeStage{pairJoin: c.newPairJoin(t.Kind, t.Left.Columns(), t.Right.Columns(), t.Columns(), t.ExtraOn), rKeys: rOff}
	st.lKeys, st.right = lOff, right
	nr := right.NumRows()
	st.table.hash = make([]uint64, 0, nr)
	st.buildRows = make([]int32, 0, nr)
	rNullable := keyNullable(right.Vecs, rOff)
	var pw pipeWorker
	live := pw.live(right)
	for lo := 0; lo < nr; lo += MorselSize {
		chunk := live[lo:min(lo+MorselSize, nr)]
		hs := pw.hashes(len(chunk))
		for _, ro := range rOff {
			right.Vecs[ro].HashInto(chunk, hs)
		}
		for k, ri := range chunk {
			if rNullable && vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them after the probe
			}
			st.table.hash = append(st.table.hash, datum.MixHash(hs[k]))
			st.buildRows = append(st.buildRows, ri)
		}
	}
	c.Counters.HashOps += int64(len(st.buildRows))
	st.table.relink(len(st.buildRows))
	st.mapDirect(c)
	c.noteMem(int64(nr))
	return st
}

// mapDirect fills p.direct when the build key is one unboxed INT column
// whose entries are unique and span (max − min, taken as uint64, so MinInt64
// to MaxInt64 does not overflow) fewer than four slots per entry, and the
// array's bytes fit the memory account; otherwise every probe hashes.
func (p *probeStage) mapDirect(c *Ctx) {
	if len(p.rKeys) != 1 || len(p.buildRows) == 0 {
		return
	}
	v := p.right.Vecs[p.rKeys[0]]
	if v.Boxed() || v.Kind() != datum.KindInt {
		return
	}
	lo, hi := intBounds(v.Ints, p.buildRows)
	span := uint64(hi) - uint64(lo)
	if span >= 4*uint64(len(p.buildRows)) {
		return
	}
	direct := make([]int32, span+1)
	for e, ri := range p.buildRows {
		slot := &direct[uint64(v.Ints[ri])-uint64(lo)]
		if *slot != 0 {
			return // a duplicate key
		}
		*slot = int32(e) + 1
	}
	if p.direct.hold(c.Mem, "hash join build", direct) {
		p.lo, p.hi = lo, hi
	}
}

func (p *probeStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	sc := p.scratch(w)
	chunk := pw.live(in)
	var lk []int64 // the left key's payloads when it probes p.direct
	var hs []uint64
	if p.direct.slots != nil && !in.Vecs[p.lKeys[0]].Boxed() && in.Vecs[p.lKeys[0]].Kind() == datum.KindInt {
		lk = in.Vecs[p.lKeys[0]].Ints
	} else {
		hs = pw.hashes(len(chunk))
		for k, lo := range p.lKeys {
			in.Vecs[lo].HashInto(chunk, hs)
			sc.keys.bind(k, in.Vecs[lo], p.right.Vecs[p.rKeys[k]])
		}
	}
	build, plain := &p.table, p.kind == logical.InnerJoin && p.extraReads == nil
	lNullable := keyNullable(in.Vecs, p.lKeys)
	var pairs int64
	for k, li := range chunk {
		sc.found = false
		if !lNullable || !vecNullAt(in.Vecs, p.lKeys, int(li)) {
			wc.Counters.HashOps++
			var h uint64
			e := int32(-1)
			if lk == nil {
				h = datum.MixHash(hs[k])
				e = build.first(h)
			} else if x := lk[li]; x >= p.lo && x <= p.hi {
				e = p.direct.slots[uint64(x)-uint64(p.lo)] - 1
			}
			for ; e >= 0; e = build.after(e) {
				ri := p.buildRows[e]
				if lk == nil && (build.hash[e] != h || !sc.keys.eq(int(li), int(ri))) {
					continue
				}
				if plain {
					pairs++
					sc.lIdx, sc.rIdx = append(sc.lIdx, li), append(sc.rIdx, ri)
				} else if done, err := p.try(wc, pw, w, sc, in, p.right, li, ri); err != nil {
					return nil, err
				} else if done {
					break
				}
				if lk != nil {
					break // a directly mapped key has one entry
				}
			}
		}
		p.end(sc, li)
	}
	wc.Counters.RowsProcessed += pairs
	return p.output(sc, in, p.right), nil
}

// --- nested-loop join ---

// nlStage tests every left row against every row of the collected right
// input. The ON conjunction runs on a block of up to MorselSize right rows at
// a time, over the right's own vectors and the left row's read columns
// broadcast across the right's row space: its kernels run on the block, its
// residual conjuncts row-at-a-time over their survivors — for a semi or anti
// join only up to the first, the pairs a row-at-a-time loop would test. The
// broadcast grows with the blocks, up to the highest right row a block reads,
// so a semi or anti join that matches early broadcasts no further.
type nlStage struct {
	pairJoin
	rows []int32 // the right's live rows
}

func (c *Ctx) newNLStage(t *physical.NLJoin, right *Batch) *nlStage {
	st := &nlStage{pairJoin: c.newPairJoin(t.Kind, t.Left.Columns(), t.Right.Columns(), t.Columns(), t.On)}
	st.right, st.rows = right, new(pipeWorker).live(right)
	if len(st.extra.compiled) > 0 {
		c.noteVectorized()
	}
	return st
}

func (p *nlStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	sc := p.scratch(w)
	if p.extraReads != nil && sc.pair.Vecs == nil {
		// The pair batch spans the right's rows: its left columns are the
		// left row broadcast, its right columns the right's own vectors.
		sc.pair = Batch{Cols: p.extra.layout, Vecs: make([]*datum.Vec, len(p.extraReads)), n: p.right.n}
		for ci, read := range p.extraReads {
			if read && ci >= p.nLeft {
				sc.pair.Vecs[ci] = p.right.Vecs[ci-p.nLeft]
			}
		}
		sc.bcast = make([]int32, p.right.n)
	}
	for _, li := range pw.live(in) {
		sc.found = false
		bcast := 0 // the right rows the left row is broadcast across
		for lo := 0; lo < len(p.rows) && !(p.semiShape && sc.found); lo += MorselSize {
			if err := wc.canceled(); err != nil {
				return nil, err
			}
			block := p.rows[lo:min(lo+MorselSize, len(p.rows))]
			pass := block
			if p.extraReads != nil {
				if reach := int(slices.Max(block)) + 1; reach > bcast {
					p.broadcast(sc, in, li, bcast, reach)
					bcast = reach
				}
				var err error
				if pass, err = p.extra.apply(wc, &sc.conj, &sc.pair, block, noLoad, p.semiShape); err != nil {
					return nil, err
				}
			}
			if p.semiShape {
				tested := len(block)
				if len(pass) > 0 {
					sc.found = true
					for tested = 1; block[tested-1] != pass[0]; tested++ {
					}
				}
				wc.Counters.RowsProcessed += int64(tested)
				continue
			}
			wc.Counters.RowsProcessed += int64(len(block))
			for _, ri := range pass {
				sc.found = true
				p.matched.mark(w, int(ri))
				sc.lIdx, sc.rIdx = append(sc.lIdx, li), append(sc.rIdx, ri)
			}
		}
		p.end(sc, li)
	}
	return p.output(sc, in, p.right), nil
}

// broadcast extends the pair batch's left columns, which hold left row li
// over the right rows [0, from), to [0, to).
func (p *nlStage) broadcast(sc *probeScratch, in *Batch, li int32, from, to int) {
	idx := sc.bcast[from:to]
	for i := range idx {
		idx[i] = li
	}
	for ci, read := range p.extraReads[:p.nLeft] {
		switch {
		case !read:
		case from == 0:
			gatherInto(&sc.pair.Vecs[ci], in.Vecs[ci], idx)
		default:
			datum.AppendGather(sc.pair.Vecs[ci], in.Vecs[ci], idx, 0)
		}
	}
}

// --- index nested-loop join ---

// inlStage seeks the inner table's index with each left row's key — the
// parallel index scan of §7.1: the index is shared storage, so probes stay
// local to each worker. A morsel's seeks are made first and the inner columns
// read above the join or by its extra predicate are fetched for all of their
// entries at once, in entry order; then each left row's entries are its
// candidates.
type inlStage struct {
	pairJoin
	tab   *storage.Table
	ix    *storage.IndexData
	inner []logical.ColumnID // the inner columns
	ords  []int
}

func (c *Ctx) newINLStage(t *physical.INLJoin) (*inlStage, error) {
	tab, ix, err := c.index(t.Table.Name, t.Index.Name)
	if err != nil {
		return nil, err
	}
	keyOff, err := colOffsets(t.Left.Columns(), t.LeftKeys, "key")
	if err != nil {
		return nil, err
	}
	st := &inlStage{pairJoin: c.newPairJoin(t.Kind, t.Left.Columns(), t.Cols, t.Columns(), t.ExtraOn),
		tab: tab, ix: ix, inner: t.Cols, ords: t.ColOrds}
	st.lKeys = keyOff
	return st, nil
}

func (p *inlStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	sc := p.scratch(w)
	if sc.key == nil {
		sc.key = make(datum.Row, len(p.lKeys))
		sc.fetched = Batch{Cols: p.inner, Vecs: make([]*datum.Vec, len(p.inner))}
	}
	chunk := pw.live(in)
	sc.ids, sc.start = sc.ids[:0], sc.start[:0]
	for _, li := range chunk {
		sc.start = append(sc.start, int32(len(sc.ids)))
		null := false
		for i, off := range p.lKeys {
			if sc.key[i] = in.Vecs[off].D(int(li)); sc.key[i].IsNull() {
				null = true // NULL keys never match under SQL equality
				break
			}
		}
		if null {
			continue
		}
		wc.Counters.IndexSeeks++
		ids := p.ix.Seek(sc.key, datum.Null, false, datum.Null, false)
		sc.ids = append(sc.ids, ids...)
	}
	sc.start = append(sc.start, int32(len(sc.ids)))
	sc.fetched.n = len(sc.ids)
	for ci := range p.inner {
		// Fetch the inner columns read above the join or by extra.
		if o := p.nLeft + ci; !(o < len(p.need) && p.need[o]) && (p.extraReads == nil || !p.extraReads[o]) {
			continue
		}
		v := sc.fetched.Vecs[ci]
		if kind := wc.Meta.Column(p.inner[ci]).Kind; v == nil {
			v = datum.NewVec(kind, len(sc.ids))
			sc.fetched.Vecs[ci] = v
		} else {
			v.Reset(kind)
		}
		if err := wc.fillIDs(p.tab, p.ords[ci], sc.ids, v); err != nil {
			return nil, err
		}
	}
	for k, li := range chunk {
		sc.found = false
		for ri := sc.start[k]; ri < sc.start[k+1]; ri++ {
			if done, err := p.try(wc, pw, w, sc, in, &sc.fetched, li, ri); err != nil {
				return nil, err
			} else if done {
				break
			}
		}
		p.end(sc, li)
	}
	return p.output(sc, in, &sc.fetched), nil
}

// --- merge join ---

// mergeStage is the merge join: the right input arrives ordered on its keys
// (a sort or an index scan below it, in datum.Compare order), so a left row's
// matches — the right rows whose keys Compare calls equal — are a range of
// the right, which binary searches find, key column by key column. The
// merge's right cursor becomes a search so that the left's morsels run on
// any worker, like every other join's.
type mergeStage struct {
	pairJoin
	rKeys []int
	rows  []int32 // the right's live rows, in key order
}

func (c *Ctx) newMergeStage(t *physical.MergeJoin, right *Batch) (*mergeStage, error) {
	lOff, err := colOffsets(t.Left.Columns(), t.LeftKeys, "key")
	if err != nil {
		return nil, err
	}
	rOff, err := colOffsets(t.Right.Columns(), t.RightKeys, "key")
	st := &mergeStage{pairJoin: c.newPairJoin(t.Kind, t.Left.Columns(), t.Right.Columns(), t.Columns(), t.ExtraOn), rKeys: rOff}
	st.lKeys, st.right, st.rows = lOff, right, new(pipeWorker).live(right)
	return st, err
}

func (p *mergeStage) run(wc *Ctx, pw *pipeWorker, w int, in *Batch) (*Batch, error) {
	sc := p.scratch(w)
	for k, lo := range p.lKeys {
		sc.keys.bind(k, in.Vecs[lo], p.right.Vecs[p.rKeys[k]])
	}
	keys := sc.keys.keys
	lNullable := keyNullable(in.Vecs, p.lKeys)
	for _, li := range pw.live(in) {
		sc.found = false
		if !lNullable || !vecNullAt(in.Vecs, p.lKeys, int(li)) { // NULL keys match nothing
			lo, hi := p.candidates(wc, keys, li)
			for _, ri := range p.rows[lo:hi] {
				if done, err := p.try(wc, pw, w, sc, in, p.right, li, ri); err != nil {
					return nil, err
				} else if done {
					break
				}
			}
		}
		p.end(sc, li)
	}
	return p.output(sc, in, p.right), nil
}

// candidates narrows the right's rows to left row li's matches [lo, hi), one
// key column at a time: within the range of the columns before it, the rows
// are ordered on the next.
func (p *mergeStage) candidates(wc *Ctx, keys datum.KeyOrders, li int32) (lo, hi int) {
	search := func(lo, hi int, past func(r int32) bool) int {
		for lo < hi {
			wc.Counters.Comparisons++
			if mid := int(uint(lo+hi) >> 1); past(p.rows[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	lo, hi = 0, len(p.rows)
	for k := range keys {
		key := keys[k : k+1]
		lo = search(lo, hi, func(r int32) bool { return key.Compare(int(li), int(r)) <= 0 })
		hi = search(lo, hi, func(r int32) bool { return key.Compare(int(li), int(r)) < 0 })
	}
	return lo, hi
}
