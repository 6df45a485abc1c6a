// Spilling (the resource governor's answer to §5.2's buffer-dependent operator
// costs): when an operator's working memory cannot be reserved from the
// query's MemAccount, it partitions its input to disk instead of failing.
// Spilling is partitioning, not a second implementation of any operator —
//
//   - Sort cuts its input into budget-sized runs, sorts each in memory,
//     spills it, and k-way merges the runs back.
//   - Hash join is a grace hash join: both inputs are hash-partitioned on the
//     join key and the one hash join runs once per partition — a hashTable
//     built over the build partition, the probe stage driven over the probe
//     partition — so only one partition's table is ever in memory.
//   - Hash aggregation hash-partitions its input on the group key and runs
//     the one aggregate sink once per partition.
//
// A partitioned row carries its row index in the operator's input as a tag
// column, and the partitions' outputs are put back in the in-memory order by
// it, so a query under a 64 KiB budget returns the rows of the same query with
// no budget, bit for bit and in order. Only when even a single partition
// cannot fit — e.g. a hash join whose build keys are all equal — does the
// query fail, with ErrMemoryBudgetExceeded.
//
// A spill file is a sequence of blocks of up to MorselSize rows, each block
// one column block per column in the segment format of internal/storage. Spill
// files live in Ctx.TempDir (default os.TempDir) and every create, block write
// and block read passes through the fault injector under the operation names
// "spill.create", "spill.write" and "spill.read".
package exec

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// minSpillChunk is the minimum working set a degraded operator uses even when
// the budget is smaller — the governor's minimal memory grant; without it a
// one-byte budget would mean one-row spill files.
const minSpillChunk = 64 << 10

// spillFloor is the per-partition reservation granted unconditionally to
// degraded operators (see MemAccount.GrowFloor). It is twice the fanout
// target so ordinary hash skew — partitions moderately above the average —
// still completes; only pathological skew (e.g. one key holding most rows)
// exceeds it and fails with the typed budget error.
const spillFloor = 2 * minSpillChunk

// maxSpillFanout bounds how many partitions/runs one spill pass produces.
const maxSpillFanout = 64

// spillFanout picks the partition count that makes one partition's working
// set about half the available budget.
func spillFanout(totalBytes, avail int64) int {
	target := max(avail/2, minSpillChunk)
	return min(max(int((totalBytes+target-1)/target), 2), maxSpillFanout)
}

// rowSetBytes is the modeled working-memory footprint of holding rows in an
// operator-owned structure (hash table, sort buffer): data bytes plus a
// per-entry bookkeeping overhead.
func rowSetBytes(rows []datum.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Size()) + entryOverhead
	}
	return n
}

// isBudgetErr reports whether an operator failed on a memory reservation —
// the signal to spill.
func isBudgetErr(err error) bool { return errors.Is(err, ErrMemoryBudgetExceeded) }

// --- spill files ---

// spillFile is one temp file of blocks. A block is its uvarint row count, then
// per column a uvarint length and the column block. Blocks are written, the
// file is finished, and the blocks are read back in order.
type spillFile struct {
	c       *Ctx
	f       *os.File
	w       *bufio.Writer
	r       *bufio.Reader
	buf     bytes.Buffer
	blk     []byte
	scratch []*datum.Vec // write's gather targets
	bytes   int64
	blocks  int // written, and not yet read
}

func (c *Ctx) newSpillFile() (*spillFile, error) {
	if err := c.step("spill.create"); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(c.TempDir, "qopt-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: create spill file: %w", err)
	}
	return &spillFile{c: c, f: f, w: bufio.NewWriterSize(f, 16<<10)}, nil
}

// discard removes the file; safe to call on nil and more than once.
func (sf *spillFile) discard() {
	if sf == nil || sf.f == nil {
		return
	}
	name := sf.f.Name()
	sf.f.Close()
	os.Remove(name)
	sf.f = nil
}

func discardAll(files []*spillFile) {
	for _, sf := range files {
		sf.discard()
	}
}

// write appends b's live rows to the file as one block.
func (sf *spillFile) write(b *Batch) error {
	if err := sf.c.step("spill.write"); err != nil {
		return err
	}
	if sf.scratch == nil {
		sf.scratch = make([]*datum.Vec, len(b.Vecs))
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(p []byte) error {
		sf.bytes += int64(len(p))
		if _, err := sf.w.Write(p); err != nil {
			return fmt.Errorf("exec: write spill file: %w", err)
		}
		return nil
	}
	if err := put(tmp[:binary.PutUvarint(tmp[:], uint64(b.NumRows()))]); err != nil {
		return err
	}
	for ci, v := range b.Vecs {
		if b.Sel != nil {
			v = gatherInto(&sf.scratch[ci], v, b.Sel)
		}
		sf.buf.Reset()
		storage.AppendColumnBlock(&sf.buf, v)
		if err := put(tmp[:binary.PutUvarint(tmp[:], uint64(sf.buf.Len()))]); err != nil {
			return err
		}
		if err := put(sf.buf.Bytes()); err != nil {
			return err
		}
	}
	sf.blocks++
	return nil
}

// finish flushes the file, records the spill against the counters and the
// operator being analyzed, and rewinds the file for reading. A file with no
// block still counts: the partition existed, it was just empty.
func (sf *spillFile) finish() error {
	if err := sf.w.Flush(); err != nil {
		return fmt.Errorf("exec: flush spill file: %w", err)
	}
	sf.c.noteSpill(1, sf.bytes)
	if _, err := sf.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("exec: rewind spill file: %w", err)
	}
	sf.r = bufio.NewReaderSize(sf.f, 16<<10)
	return nil
}

// read returns the next block as a batch over cols, or nil after the last.
func (sf *spillFile) read(cols []logical.ColumnID) (*Batch, error) {
	if sf.blocks == 0 {
		return nil, nil
	}
	if err := sf.c.step("spill.read"); err != nil {
		return nil, err
	}
	rows, err := binary.ReadUvarint(sf.r)
	if err != nil {
		return nil, fmt.Errorf("exec: read spill block: %w", err)
	}
	b := &Batch{Cols: cols, Vecs: make([]*datum.Vec, len(cols)), n: int(rows)}
	for ci := range b.Vecs {
		ln, err := binary.ReadUvarint(sf.r)
		if err != nil {
			return nil, fmt.Errorf("exec: read spill block: %w", err)
		}
		sf.blk = slices.Grow(sf.blk[:0], int(ln))[:ln]
		if _, err := io.ReadFull(sf.r, sf.blk); err != nil {
			return nil, fmt.Errorf("exec: read spill block: %w", err)
		}
		if b.Vecs[ci], err = storage.DecodeColumnBlock(sf.blk, b.n); err != nil {
			return nil, fmt.Errorf("exec: read spill block: %w", err)
		}
	}
	sf.blocks--
	return b, nil
}

// readAll returns every remaining block as one batch over cols.
func (sf *spillFile) readAll(cols []logical.ColumnID) (*Batch, error) {
	out := emptyBatch(cols)
	for {
		b, err := sf.read(cols)
		if err != nil || b == nil {
			return out, err
		}
		for ci, v := range b.Vecs {
			if out.n == 0 {
				out.Vecs[ci] = v
			} else {
				out.Vecs[ci].AppendRange(v, 0, b.n)
			}
		}
		out.n += b.n
	}
}

// --- partitioning ---

// tagCol is the column ID of a partitioned row's tag. 0 is no column's ID, so
// no expression reads it.
const tagCol logical.ColumnID = 0

// spillPartitions writes the live rows of b to nParts spill files, each row to
// the partition of its key hash and followed by its row index in b as an INT
// tag column. Rows keep their order within a partition. The partition is
// taken from the top bits of the finalized hash, so a partition's hash table
// still spreads over all of its buckets. With spreadNulls — a join's build
// side — a row with a NULL key, which joins nothing, goes to the partition
// of its position instead, so that the NULL keys do not all charge one
// partition. Partitioning is I/O, counted as spills: the logical work
// (RowsProcessed, HashOps) is the operator's, the same whether it ran once or
// once per partition. The files are returned even with an error, for the
// caller to discard.
func (c *Ctx) spillPartitions(b *Batch, keyOff []int, nParts int, spreadNulls bool) ([]*spillFile, error) {
	live := new(pipeWorker).live(b)
	hs := make([]uint64, len(live))
	hashInit(hs)
	for _, o := range keyOff {
		hashCombineVec(b.Vecs[o], live, hs)
	}
	spreadNulls = spreadNulls && keyNullable(b.Vecs, keyOff)
	part := make([]uint8, len(live))
	for k, i := range live {
		if spreadNulls && vecNullAt(b.Vecs, keyOff, int(i)) {
			part[k] = uint8(k % nParts)
		} else {
			part[k] = uint8((mixHash(hs[k]) >> 32) * uint64(nParts) >> 32)
		}
	}
	ids := make([]int64, b.n)
	for i := range ids {
		ids[i] = int64(i)
	}
	tagged := &Batch{Vecs: append(slices.Clip(b.Vecs), datum.NewTypedVec(datum.KindInt, b.n, ids, nil, nil, nil, 0))}
	files := make([]*spillFile, nParts)
	sel := make([]int32, 0, MorselSize)
	for p := range files {
		sf, err := c.newSpillFile()
		if err != nil {
			return files, err
		}
		files[p] = sf
		for k, q := range part {
			if int(q) == p {
				sel = append(sel, live[k])
			}
			if len(sel) == MorselSize || (k == len(part)-1 && len(sel) > 0) {
				tagged.Sel = sel
				if err := sf.write(tagged); err != nil {
					return files, err
				}
				sel = sel[:0]
			}
		}
		if err := sf.finish(); err != nil {
			return files, err
		}
	}
	return files, nil
}

// spillPipeline is a serial pipeline over b, a partition read back from its
// spill file as the output of node. EXPLAIN ANALYZE does not see it: the
// operator that spilled is metered as a whole.
func (c *Ctx) spillPipeline(node physical.Plan, b *Batch) *pipeline {
	p := &pipeline{c: c, src: &batchSource{in: b}, serial: true}
	p.nodes, p.stages = append(p.nodeBuf[:0], node), p.stageBuf[:0]
	return p
}

// unpartition concatenates the partitions' outputs, each laid out as layout,
// in the order of key — stably, so rows of one key keep their partition order
// — and without the tag columns.
func unpartition(outs []*Batch, layout []logical.ColumnID, key func(b *Batch, i int) int64) *Batch {
	type at struct {
		key  int64
		p, i int32
	}
	var order []at
	for p, b := range outs {
		for _, i := range new(pipeWorker).live(b) {
			order = append(order, at{key(b, int(i)), int32(p), i})
		}
	}
	slices.SortStableFunc(order, func(a, b at) int { return cmp.Compare(a.key, b.key) })
	res := &Batch{n: len(order)}
	for ci, id := range layout {
		if id == tagCol {
			continue
		}
		v := datum.NewVec(datum.KindNull, len(order))
		for _, o := range order {
			v.AppendVec(outs[o.p].Vecs[ci], int(o.i))
		}
		res.Cols, res.Vecs = append(res.Cols, id), append(res.Vecs, v)
	}
	return res
}

// --- grace hash join ---

// graceJoin is t over a build side right that does not fit the budget. Both
// inputs are partitioned on the join key, and per partition the build rows
// are charged with the spill floor, a probe stage is built over them and the
// probe rows are driven through it. All matches of a probe row are in its
// partition, in build order, because equal keys hash equally, so ordering
// the outputs by the probe row's tag restores the in-memory emission order;
// a FULL OUTER join's unmatched build rows follow, by theirs.
func (c *Ctx) graceJoin(t *physical.HashJoin, left, right *Batch, lOff, rOff []int) (*Batch, error) {
	part := &physical.HashJoin{Kind: t.Kind, LeftKeys: t.LeftKeys, RightKeys: t.RightKeys, ExtraOn: t.ExtraOn,
		Left:  &physical.ValuesOp{Cols: append(slices.Clip(t.Left.Columns()), tagCol)},
		Right: &physical.ValuesOp{Cols: append(slices.Clip(t.Right.Columns()), tagCol)}}
	nParts := spillFanout(batchRowBytes(right), c.Mem.Available())
	builds, err := c.spillPartitions(right, rOff, nParts, true)
	defer discardAll(builds)
	if err != nil {
		return nil, err
	}
	probes, err := c.spillPartitions(left, lOff, nParts, false)
	defer discardAll(probes)
	if err != nil {
		return nil, err
	}
	outs := make([]*Batch, nParts)
	for p := range outs {
		if outs[p], err = c.joinPartition(part, builds[p], probes[p], lOff, rOff); err != nil {
			return nil, err
		}
	}
	lTag, nLeft := len(t.Left.Columns()), int64(left.n)
	return unpartition(outs, part.Columns(), func(b *Batch, i int) int64 {
		if v := b.Vecs[lTag]; !v.Null(i) {
			return v.D(i).Int()
		}
		return nLeft + b.Vecs[len(b.Vecs)-1].D(i).Int()
	}), nil
}

// joinPartition runs the partition join part over one build and one probe
// partition file.
func (c *Ctx) joinPartition(part *physical.HashJoin, build, probe *spillFile, lOff, rOff []int) (*Batch, error) {
	right, err := build.readAll(part.Right.Columns())
	if err != nil {
		return nil, err
	}
	nCols := len(right.Vecs) - 1
	bytes := batchRowBytes(&Batch{Vecs: right.Vecs[:nCols], n: right.n})
	if err := c.Mem.GrowFloor("hash join build partition", bytes, 0, spillFloor); err != nil {
		return nil, err
	}
	defer c.Mem.Shrink(bytes)
	c.noteMemBytes(bytes)
	left, err := probe.readAll(part.Left.Columns())
	if err != nil {
		return nil, err
	}
	st := c.newProbeStage(part, right, lOff, rOff)
	out, err := c.spillPipeline(part.Left, left).add(part, st).collect()
	if err != nil || part.Kind != logical.FullOuterJoin {
		return out, err
	}
	return st.withUnmatched(out), nil
}

// --- partitioned hash aggregation ---

// spillAggregate is s over its collected input in when the groups do not fit
// the budget. in is partitioned on the group key and the one aggregate sink
// runs per partition, serially, its groups charged with the spill floor. A
// group's first row decides its place in the in-memory output, so each
// partition also aggregates the MIN of the tag column, uncharged, and the
// groups of all partitions are ordered by it.
func (c *Ctx) spillAggregate(s *aggSink, in *Batch) (*Batch, error) {
	cols := append(slices.Clip(s.input.Columns()), tagCol)
	first := logical.AggItem{ID: tagCol, Fn: logical.AggMin, Arg: &logical.Col{ID: tagCol}}
	part, err := c.newAggSink(&physical.HashGroupBy{Input: &physical.ValuesOp{Cols: cols}, GroupCols: s.keys, Aggs: append(slices.Clip(s.aggs), first)})
	if err != nil {
		return nil, err
	}
	part.partition = true
	files, err := c.spillPartitions(in, s.keyOff, spillFanout(batchRowBytes(in), c.Mem.Available()), false)
	defer discardAll(files)
	if err != nil {
		return nil, err
	}
	var outs []*Batch
	for _, sf := range files {
		b, err := sf.readAll(cols)
		if err != nil {
			return nil, err
		}
		if b.n == 0 {
			continue
		}
		out, err := part.run(c, c.spillPipeline(part.input, b))
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	out := unpartition(outs, part.node.Columns(), func(b *Batch, i int) int64 {
		return b.Vecs[len(b.Vecs)-1].D(i).Int()
	})
	c.noteMem(int64(out.NumRows()))
	return out, nil
}

// --- external merge sort ---

// externalSortRows sorts rows by spec using budget-sized sorted runs spilled
// to temp files and a k-way merge. Runs hold consecutive input rows, each
// sorted with ties broken on the input index, so taking the earliest run's
// row among equal heads gives exactly the serial stable sort.
func (c *Ctx) externalSortRows(rows []datum.Row, spec []datum.SortSpec) ([]datum.Row, error) {
	if len(rows) == 0 {
		return rows, nil
	}
	runBytes := max(c.Mem.Available()/2, minSpillChunk)
	cols := make([]logical.ColumnID, len(rows[0]))
	var maxRun int64
	var runs []*spillFile
	defer func() { discardAll(runs) }()

	// Cut the input into runs of about runBytes, sort each by (spec, index),
	// and spill it in sorted order.
	for lo := 0; lo < len(rows); {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		hi := lo
		var sz int64
		for hi < len(rows) && (sz < runBytes || hi == lo) {
			sz += int64(rows[hi].Size()) + entryOverhead
			hi++
		}
		maxRun = max(maxRun, sz)
		run := make([]int, hi-lo)
		for i := range run {
			run[i] = lo + i
		}
		sort.Slice(run, func(a, b int) bool {
			c.Counters.Comparisons++
			cmp := datum.CompareRows(rows[run[a]], rows[run[b]], spec)
			if cmp != 0 {
				return cmp < 0
			}
			return run[a] < run[b]
		})
		sorted := make([]datum.Row, len(run))
		for k, idx := range run {
			sorted[k] = rows[idx]
		}
		sf, err := c.newSpillFile()
		if err != nil {
			return nil, err
		}
		runs = append(runs, sf)
		for k := 0; k < len(sorted); k += MorselSize {
			if err := sf.write(batchFromRows(cols, sorted[k:min(k+MorselSize, len(sorted))])); err != nil {
				return nil, err
			}
		}
		if err := sf.finish(); err != nil {
			return nil, err
		}
		lo = hi
	}
	// The sort's real working set is one run buffer (plus a block per run
	// during the merge); report it without reserving — runs always complete.
	c.Mem.NotePeak(maxRun)
	c.noteMemBytes(maxRun)

	// K-way merge over the run heads, a linear tournament. heads stays in run
	// order, so keeping the first of equal heads keeps the input order.
	type head struct {
		rows []datum.Row // the current block of the run
		at   int
		sf   *spillFile
	}
	advance := func(h *head) (bool, error) {
		if h.at++; h.at < len(h.rows) {
			return true, nil
		}
		b, err := h.sf.read(cols)
		if err != nil || b == nil {
			return false, err
		}
		h.rows, h.at = b.ToRows(), 0
		return true, nil
	}
	heads := make([]*head, 0, len(runs))
	for _, sf := range runs {
		h := &head{sf: sf}
		if ok, err := advance(h); err != nil {
			return nil, err
		} else if ok {
			heads = append(heads, h)
		}
	}
	out := make([]datum.Row, 0, len(rows))
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			c.Counters.Comparisons++
			if datum.CompareRows(heads[i].rows[heads[i].at], heads[best].rows[heads[best].at], spec) < 0 {
				best = i
			}
		}
		h := heads[best]
		out = append(out, h.rows[h.at])
		if len(out)%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		ok, err := advance(h)
		if err != nil {
			return nil, err
		}
		if !ok {
			heads = slices.Delete(heads, best, best+1)
		}
	}
	return out, nil
}
