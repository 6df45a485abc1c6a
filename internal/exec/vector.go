// The kernel implementations of hash aggregation and hash join: they consume
// and produce columnar batches (batch.go) through the typed hash and
// accumulate kernels in kernels.go. execPlan offers a HashGroupBy or HashJoin
// node to them when Ctx.Vectorize allows kernels; whether they claim it
// depends only on the plan node — aggregate shapes, ExtraOn — never on the
// parallelism degree, and an unclaimed node runs the row implementation in
// iter.go. Claimed operators replicate the row implementation's observable
// behaviour exactly: the same counters (RowsProcessed, HashOps), the same
// memory reservations with the same spill fallbacks, and bit-identical
// output rows.
package exec

import (
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// identSel returns the identity selection vector [0, n).
func identSel(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// liveSel returns the batch's live row indices, materializing the identity
// when no selection vector is present.
func (b *Batch) liveSel() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return identSel(b.n)
}

// vecNullAt reports whether any of the key columns is NULL at row i.
func vecNullAt(vecs []*datum.Vec, offs []int, i int) bool {
	for _, o := range offs {
		if vecs[o].Null(i) {
			return true
		}
	}
	return false
}

// --- vectorized hash aggregation ---

// vecGroups is the batch path's group table: hash-bucketed group ids over
// interned key rows, charged to the memory account with the row path's exact
// per-entry model so both trip the budget at the same input.
type vecGroups struct {
	byHash  map[uint64][]int32
	keys    []datum.Row
	keyOff  []int
	nAggs   int
	mem     *MemAccount
	charged int64
}

func (g *vecGroups) release() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
}

// assign returns the group id of batch row i, creating (and charging) the
// group on first sight. Group ids are dense and in first-appearance order, so
// emitting groups by id reproduces the row path's insertion order.
func (g *vecGroups) assign(in *Batch, i int, h uint64) (int32, error) {
	for _, gid := range g.byHash[h] {
		key := g.keys[gid]
		match := true
		for kc, ko := range g.keyOff {
			if !datum.Equal(in.Vecs[ko].D(i), key[kc]) {
				match = false
				break
			}
		}
		if match {
			return gid, nil
		}
	}
	key := make(datum.Row, len(g.keyOff))
	for kc, ko := range g.keyOff {
		key[kc] = in.Vecs[ko].D(i)
	}
	n := int64(key.Size()) + entryOverhead + int64(48*g.nAggs)
	if err := g.mem.GrowFloor("hash aggregation", n, g.charged, 0); err != nil {
		return 0, err
	}
	g.charged += n
	gid := int32(len(g.keys))
	g.keys = append(g.keys, key)
	g.byHash[h] = append(g.byHash[h], gid)
	return gid, nil
}

func (c *Ctx) vecGroupBy(t *physical.HashGroupBy) (*Batch, bool, error) {
	layout := t.Input.Columns()
	keyOff, err := offsetsOf(layout, t.GroupCols)
	if err != nil {
		return nil, false, nil
	}
	argOff := make([]int, len(t.Aggs))
	for i, a := range t.Aggs {
		if a.Distinct {
			return nil, false, nil
		}
		if a.Arg == nil {
			if a.Fn != logical.AggCount {
				return nil, false, nil
			}
			argOff[i] = -1
			continue
		}
		col, isCol := a.Arg.(*logical.Col)
		if !isCol {
			return nil, false, nil
		}
		if argOff[i] = (&Result{Cols: layout}).ColIndex(col.ID); argOff[i] < 0 {
			return nil, false, nil
		}
	}

	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, true, err
	}
	// Pre-size hash buckets from the optimizer's group-count estimate, capped
	// so a wild overestimate cannot make the presize itself the cost.
	hint := int(t.Rows)
	if hint < 0 {
		hint = 0
	}
	if hint > 1<<20 {
		hint = 1 << 20
	}
	g := &vecGroups{byHash: make(map[uint64][]int32, hint), keyOff: keyOff, nAggs: len(t.Aggs), mem: c.Mem}
	defer g.release()
	scalar := len(keyOff) == 0
	if scalar {
		// Like newGroupTable, the single global group of a scalar aggregation
		// exists before any accounting and is never charged.
		g.keys = append(g.keys, nil)
	}
	accs := make([]vecAccumulator, len(t.Aggs))
	args := make([]*datum.Vec, len(t.Aggs)) // nil for COUNT(*)
	for i, a := range t.Aggs {
		if argOff[i] >= 0 {
			args[i] = in.Vecs[argOff[i]]
		}
		if accs[i] = newVecAccumulator(a, args[i]); accs[i] == nil {
			return nil, false, nil
		}
	}

	sel := in.liveSel()
	if c.curNode != nil {
		c.curNode.Batches += int64(numMorsels(len(sel)))
	}
	gidBuf := make([]int32, MorselSize)
	for lo := 0; lo < len(sel); lo += MorselSize {
		hi := min(lo+MorselSize, len(sel))
		if err := c.canceled(); err != nil {
			return nil, true, err
		}
		chunk := sel[lo:hi]
		c.Counters.RowsProcessed += int64(len(chunk))
		c.Counters.HashOps += int64(len(chunk))
		gids := gidBuf[:len(chunk)]
		if scalar {
			for k := range gids {
				gids[k] = 0
			}
		} else {
			hs := getHashBuf(len(chunk))
			hashInit(hs)
			for _, ko := range keyOff {
				hashCombineVec(in.Vecs[ko], chunk, hs)
			}
			for k, i := range chunk {
				gid, aerr := g.assign(in, int(i), hs[k])
				if aerr != nil {
					// Budget exceeded: degrade to the partition-and-spill
					// aggregation, exactly like the row path.
					putHashBuf(hs)
					g.release()
					rows := in.ToRows()
					out, serr := c.spillGroupBy(rows, layout, keyOff, t.GroupCols, t.Aggs)
					if serr != nil {
						return nil, true, serr
					}
					return batchFromRows(t.Columns(), out), true, nil
				}
				gids[k] = gid
			}
			putHashBuf(hs)
		}
		ng := len(g.keys)
		for ai := range accs {
			accs[ai].ensure(ng)
			accs[ai].accumulate(args[ai], chunk, gids)
		}
	}
	for ai := range accs {
		accs[ai].ensure(len(g.keys)) // scalar agg over empty input still emits
	}
	c.noteMem(int64(len(g.keys)))
	c.noteMemBytes(g.charged)

	outCols := t.Columns()
	vecs := make([]*datum.Vec, len(outCols))
	for kc := range keyOff {
		v := datum.NewVec(datum.KindNull, len(g.keys))
		for _, key := range g.keys {
			v.AppendD(key[kc])
		}
		vecs[kc] = v
	}
	for ai := range accs {
		v := datum.NewVec(datum.KindNull, len(g.keys))
		for gid := range g.keys {
			v.AppendD(accs[ai].result(gid))
		}
		vecs[len(keyOff)+ai] = v
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: len(g.keys)}, true, nil
}

// --- vectorized hash join ---

// gatherVec materializes src rows named by idx into a fresh vector; negative
// indices produce NULL (the outer-join padding).
func gatherVec(src *datum.Vec, idx []int32) *datum.Vec {
	var out *datum.Vec
	if src.Boxed() {
		out = datum.NewAnyVec(len(idx))
	} else {
		out = datum.NewVec(src.Kind(), len(idx))
	}
	for _, i := range idx {
		if i < 0 {
			out.AppendNull()
		} else {
			out.AppendVec(src, int(i))
		}
	}
	return out
}

// vecKeysEqual reports whether the join keys match, with the row path's
// datum.EqualOn semantics (NULLs are pre-filtered by the callers).
func vecKeysEqual(l *Batch, lOff []int, li int, r *Batch, rOff []int, ri int) bool {
	for k := range lOff {
		if !datum.Equal(l.Vecs[lOff[k]].D(li), r.Vecs[rOff[k]].D(ri)) {
			return false
		}
	}
	return true
}

func (c *Ctx) vecHashJoin(t *physical.HashJoin) (*Batch, bool, error) {
	if len(t.ExtraOn) > 0 {
		return nil, false, nil
	}
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	lOff, err := offsetsOf(leftLayout, t.LeftKeys)
	if err != nil {
		return nil, false, nil
	}
	rOff, err := offsetsOf(rightLayout, t.RightKeys)
	if err != nil {
		return nil, false, nil
	}
	left, err := c.inputBatch(t.Left)
	if err != nil {
		return nil, true, err
	}
	right, err := c.inputBatch(t.Right)
	if err != nil {
		return nil, true, err
	}
	buildBytes := batchRowBytes(right)
	if err := c.Mem.Grow("hash join build", buildBytes); err != nil {
		// Build side over budget: degrade to the grace hash join on
		// materialized rows, exactly like the row path.
		out, jerr := c.graceHashJoin(t, left.ToRows(), right.ToRows(), lOff, rOff)
		if jerr != nil {
			return nil, true, jerr
		}
		return batchFromRows(t.Columns(), out), true, nil
	}
	defer c.Mem.Shrink(buildBytes)
	c.noteMemBytes(buildBytes)

	// Build on the right: bucket lists hold batch row indices in selection
	// order, so every probe sees its matches in the serial row order.
	rsel := right.liveSel()
	build := make(map[uint64][]int32, len(rsel))
	for lo := 0; lo < len(rsel); lo += MorselSize {
		hi := min(lo+MorselSize, len(rsel))
		chunk := rsel[lo:hi]
		hs := getHashBuf(len(chunk))
		hashInit(hs)
		for _, ro := range rOff {
			hashCombineVec(right.Vecs[ro], chunk, hs)
		}
		for k, ri := range chunk {
			if vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them below
			}
			c.Counters.HashOps++
			build[hs[k]] = append(build[hs[k]], ri)
		}
		putHashBuf(hs)
	}
	c.noteMem(int64(right.NumRows()))

	// Probe the left in selection order, emitting (left, right) index pairs;
	// ri = -1 pads unmatched outer rows with NULLs at gather time.
	lsel := left.liveSel()
	if c.curNode != nil {
		c.curNode.Batches += int64(numMorsels(len(lsel)))
	}
	semiShape := t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin
	var lIdx, rIdx []int32
	var rightMatched []bool
	if t.Kind == logical.FullOuterJoin {
		rightMatched = make([]bool, right.n)
	}
	for lo := 0; lo < len(lsel); lo += MorselSize {
		hi := min(lo+MorselSize, len(lsel))
		if err := c.canceled(); err != nil {
			return nil, true, err
		}
		chunk := lsel[lo:hi]
		hs := getHashBuf(len(chunk))
		hashInit(hs)
		for _, lo2 := range lOff {
			hashCombineVec(left.Vecs[lo2], chunk, hs)
		}
		for k, li := range chunk {
			matched := false
			if !vecNullAt(left.Vecs, lOff, int(li)) {
				c.Counters.HashOps++
				for _, ri := range build[hs[k]] {
					if !vecKeysEqual(left, lOff, int(li), right, rOff, int(ri)) {
						continue
					}
					c.Counters.RowsProcessed++
					matched = true
					if rightMatched != nil {
						rightMatched[ri] = true
					}
					switch t.Kind {
					case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
						lIdx = append(lIdx, li)
						rIdx = append(rIdx, ri)
					case logical.SemiJoin:
						lIdx = append(lIdx, li)
					}
					if semiShape {
						break
					}
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin, logical.FullOuterJoin:
				if !matched {
					lIdx = append(lIdx, li)
					rIdx = append(rIdx, -1)
				}
			case logical.AntiJoin:
				if !matched {
					lIdx = append(lIdx, li)
				}
			}
		}
		putHashBuf(hs)
	}
	if t.Kind == logical.FullOuterJoin {
		for _, ri := range rsel {
			if !rightMatched[ri] {
				lIdx = append(lIdx, -1)
				rIdx = append(rIdx, ri)
			}
		}
	}

	outCols := t.Columns()
	vecs := make([]*datum.Vec, 0, len(outCols))
	for _, v := range left.Vecs[:len(leftLayout)] {
		vecs = append(vecs, gatherVec(v, lIdx))
	}
	if !semiShape {
		for _, v := range right.Vecs[:len(rightLayout)] {
			vecs = append(vecs, gatherVec(v, rIdx))
		}
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: len(lIdx)}, true, nil
}
