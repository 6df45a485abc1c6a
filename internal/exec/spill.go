// Spill-to-disk graceful degradation (the resource governor's answer to §5.2's
// buffer-dependent operator costs): when an operator's working memory cannot
// be reserved from the query's MemAccount, it degrades instead of failing —
//
//   - Sort runs an external merge sort: budget-sized runs are sorted in
//     memory, spilled to temp files, and k-way merged back.
//   - Hash join runs a grace hash join: the build side is hash-partitioned to
//     temp files and each partition is built and probed on its own, so only
//     one partition's hash table is ever in memory.
//   - Hash aggregation partitions its input rows to temp files by group-key
//     hash and aggregates one partition at a time.
//
// All three degraded paths emit exactly the rows, in exactly the order, of
// their in-memory counterparts (runs and probes carry original row indexes,
// and partition outputs are merged back by them), so a query under a 64 KiB
// budget is bit-identical to the same query with no budget at all. Only when
// even a single partition cannot fit — e.g. a hash join whose build keys are
// all equal — does the query fail, with ErrMemoryBudgetExceeded.
//
// Spill files live in Ctx.TempDir (default os.TempDir) and every create,
// write and read passes through the fault injector under the operation names
// "spill.create", "spill.write" and "spill.read".
package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
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
	target := avail / 2
	if target < minSpillChunk {
		target = minSpillChunk
	}
	p := int((totalBytes + target - 1) / target)
	if p < 2 {
		p = 2
	}
	if p > maxSpillFanout {
		p = maxSpillFanout
	}
	return p
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

// --- spill files ---

// spillWriter writes (tag, row) records to a temp file through the fault
// injector. Tags carry original row indexes so readers can restore the
// in-memory row order.
type spillWriter struct {
	c     *Ctx
	f     *os.File
	w     *bufio.Writer
	bytes int64
	rows  int64
}

func (c *Ctx) newSpillWriter() (*spillWriter, error) {
	if err := c.step("spill.create"); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(c.TempDir, "qopt-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: create spill file: %w", err)
	}
	return &spillWriter{c: c, f: f, w: bufio.NewWriterSize(f, 16<<10)}, nil
}

// discard removes the spill file (writer or reader side may call it once).
func (sw *spillWriter) discard() {
	if sw == nil || sw.f == nil {
		return
	}
	name := sw.f.Name()
	sw.f.Close()
	os.Remove(name)
	sw.f = nil
}

func (sw *spillWriter) writeRow(tag int64, r datum.Row) error {
	if err := sw.c.step("spill.write"); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], tag)
	if _, err := sw.w.Write(buf[:n]); err != nil {
		return err
	}
	sw.bytes += int64(n)
	n2, err := encodeRow(sw.w, r)
	if err != nil {
		return err
	}
	sw.bytes += n2
	sw.rows++
	return nil
}

// finish flushes the file and records the spill against the counters and the
// current operator's metrics. A writer with zero rows still counts: the
// partition existed, it was just empty.
func (sw *spillWriter) finish() error {
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("exec: flush spill file: %w", err)
	}
	sw.c.noteSpill(1, sw.bytes)
	return nil
}

// reader rewinds the file and returns a record reader over it.
func (sw *spillWriter) reader() (*spillReader, error) {
	if _, err := sw.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &spillReader{c: sw.c, r: bufio.NewReaderSize(sw.f, 16<<10), left: sw.rows}, nil
}

// spillReader streams (tag, row) records back.
type spillReader struct {
	c    *Ctx
	r    *bufio.Reader
	left int64
}

// next returns the next record, or ok=false at end of stream.
func (sr *spillReader) next() (int64, datum.Row, bool, error) {
	if sr.left == 0 {
		return 0, nil, false, nil
	}
	if err := sr.c.step("spill.read"); err != nil {
		return 0, nil, false, err
	}
	tag, err := binary.ReadVarint(sr.r)
	if err != nil {
		return 0, nil, false, fmt.Errorf("exec: read spill record: %w", err)
	}
	row, err := decodeRow(sr.r)
	if err != nil {
		return 0, nil, false, err
	}
	sr.left--
	return tag, row, true, nil
}

// encodeRow writes a row as: uvarint column count, then one kind byte and
// payload per datum. Floats are stored as raw IEEE bits, so a spilled row
// decodes bit-identically.
func encodeRow(w *bufio.Writer, r datum.Row) (int64, error) {
	var buf [binary.MaxVarintLen64]byte
	var written int64
	put := func(b []byte) error {
		_, err := w.Write(b)
		written += int64(len(b))
		return err
	}
	if err := put(buf[:binary.PutUvarint(buf[:], uint64(len(r)))]); err != nil {
		return written, err
	}
	for _, d := range r {
		if err := w.WriteByte(byte(d.Kind())); err != nil {
			return written, err
		}
		written++
		switch d.Kind() {
		case datum.KindNull:
		case datum.KindBool:
			b := byte(0)
			if d.Bool() {
				b = 1
			}
			if err := w.WriteByte(b); err != nil {
				return written, err
			}
			written++
		case datum.KindInt:
			if err := put(buf[:binary.PutVarint(buf[:], d.Int())]); err != nil {
				return written, err
			}
		case datum.KindFloat:
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(d.Float()))
			if err := put(buf[:8]); err != nil {
				return written, err
			}
		case datum.KindString:
			s := d.Str()
			if err := put(buf[:binary.PutUvarint(buf[:], uint64(len(s)))]); err != nil {
				return written, err
			}
			if _, err := w.WriteString(s); err != nil {
				return written, err
			}
			written += int64(len(s))
		default:
			return written, fmt.Errorf("exec: cannot spill datum kind %v", d.Kind())
		}
	}
	return written, nil
}

func decodeRow(r *bufio.Reader) (datum.Row, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	row := make(datum.Row, n)
	for i := range row {
		kb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		switch datum.Kind(kb) {
		case datum.KindNull:
			row[i] = datum.Null
		case datum.KindBool:
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			row[i] = datum.NewBool(b != 0)
		case datum.KindInt:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			row[i] = datum.NewInt(v)
		case datum.KindFloat:
			var buf [8]byte
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			row[i] = datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		case datum.KindString:
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ln)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			row[i] = datum.NewString(string(buf))
		default:
			return nil, fmt.Errorf("exec: corrupt spill record: kind %d", kb)
		}
	}
	return row, nil
}

// discardAll removes a set of spill files.
func discardAll(ws []*spillWriter) {
	for _, w := range ws {
		w.discard()
	}
}

// --- external merge sort ---

// externalSortRows sorts rows by spec using budget-sized sorted runs spilled
// to temp files and an order-preserving k-way merge. Ties break on the
// original row index, so the output is exactly the serial stable sort.
func (c *Ctx) externalSortRows(rows []datum.Row, spec []datum.SortSpec) ([]datum.Row, error) {
	runBytes := c.Mem.Available() / 2
	if runBytes < minSpillChunk {
		runBytes = minSpillChunk
	}
	var maxRun int64

	var writers []*spillWriter
	defer func() { discardAll(writers) }()

	// Cut the input into runs of about runBytes, sort each by (spec, index),
	// and spill it in sorted order.
	lo := 0
	for lo < len(rows) {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		hi := lo
		var sz int64
		for hi < len(rows) && (sz < runBytes || hi == lo) {
			sz += int64(rows[hi].Size()) + entryOverhead
			hi++
		}
		if sz > maxRun {
			maxRun = sz
		}
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
		w, err := c.newSpillWriter()
		if err != nil {
			return nil, err
		}
		writers = append(writers, w)
		for _, idx := range run {
			if err := w.writeRow(int64(idx), rows[idx]); err != nil {
				return nil, err
			}
		}
		if err := w.finish(); err != nil {
			return nil, err
		}
		lo = hi
	}
	// The sort's real working set is one run buffer (plus run heads during
	// the merge); report it without reserving — runs always complete.
	c.Mem.NotePeak(maxRun)
	c.noteMemBytes(maxRun)

	// K-way merge by (key, original index): each run is sorted by it, so a
	// linear tournament over the run heads reproduces the stable order.
	type head struct {
		tag int64
		row datum.Row
		sr  *spillReader
	}
	heads := make([]*head, 0, len(writers))
	for _, w := range writers {
		sr, err := w.reader()
		if err != nil {
			return nil, err
		}
		tag, row, ok, err := sr.next()
		if err != nil {
			return nil, err
		}
		if ok {
			heads = append(heads, &head{tag: tag, row: row, sr: sr})
		}
	}
	out := make([]datum.Row, 0, len(rows))
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			c.Counters.Comparisons++
			cmp := datum.CompareRows(heads[i].row, heads[best].row, spec)
			if cmp < 0 || (cmp == 0 && heads[i].tag < heads[best].tag) {
				best = i
			}
		}
		h := heads[best]
		out = append(out, h.row)
		if len(out)%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		tag, row, ok, err := h.sr.next()
		if err != nil {
			return nil, err
		}
		if ok {
			h.tag, h.row = tag, row
		} else {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	return out, nil
}

// --- grace hash join ---

// graceHashJoin executes a hash join whose build side does not fit the
// budget: build rows are hash-partitioned to temp files, then each partition
// is loaded, built and probed on its own, and the per-partition outputs are
// merged back into the exact serial emission order using the original left
// row indexes (all matches of one probe row live in one partition, because
// equal keys hash equally).
func (c *Ctx) graceHashJoin(t *physical.HashJoin, left, right []datum.Row, lOff, rOff []int) ([]datum.Row, error) {
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	combined := append(append([]logical.ColumnID{}, leftLayout...), rightLayout...)
	leftWidth, rightWidth := len(leftLayout), len(rightLayout)
	needMatched := t.Kind == logical.FullOuterJoin

	nParts := spillFanout(rowSetBytes(right), c.Mem.Available())

	// Partition the build side to disk. NULL build keys never match; they go
	// straight to the full-outer leftovers.
	writers := make([]*spillWriter, nParts)
	defer func() { discardAll(writers) }()
	for p := range writers {
		w, err := c.newSpillWriter()
		if err != nil {
			return nil, err
		}
		writers[p] = w
	}
	type tagged struct {
		tag int64
		row datum.Row
	}
	var leftovers []tagged // unmatched right rows for FULL OUTER, by tag
	for i, rr := range right {
		if hasNullAt(rr, rOff) {
			if needMatched {
				leftovers = append(leftovers, tagged{int64(i), rr})
			}
			continue
		}
		c.Counters.HashOps++
		p := int(rr.Hash(rOff) % uint64(nParts))
		if err := writers[p].writeRow(int64(i), rr); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := w.finish(); err != nil {
			return nil, err
		}
	}

	// Assign each probe row to its partition (-1 for NULL keys, handled
	// directly in the merge).
	leftPart := make([]int32, len(left))
	for i, lr := range left {
		if hasNullAt(lr, lOff) {
			leftPart[i] = -1
			continue
		}
		leftPart[i] = int32(lr.Hash(lOff) % uint64(nParts))
	}

	// Build and probe one partition at a time. outs[p] holds that
	// partition's emissions keyed by ascending left index (or, for rows a
	// full outer join emits from the build side, recorded into leftovers).
	type emission struct {
		li   int64
		rows []datum.Row
	}
	outs := make([][]emission, nParts)
	e := newEnv(combined, nil)
	var outTotal int
	for p := 0; p < nParts; p++ {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		sr, err := writers[p].reader()
		if err != nil {
			return nil, err
		}
		var tags []int64
		var rows []datum.Row
		var partBytes int64
		for {
			tag, row, ok, err := sr.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			tags = append(tags, tag)
			rows = append(rows, row)
			partBytes += int64(row.Size()) + entryOverhead
		}
		if err := c.Mem.GrowFloor("hash join build partition", partBytes, 0, spillFloor); err != nil {
			return nil, err
		}
		c.noteMemBytes(partBytes)
		build := make(map[uint64][]int, len(rows))
		for i, rr := range rows {
			c.Counters.HashOps++
			h := rr.Hash(rOff)
			build[h] = append(build[h], i)
		}
		matched := make([]bool, len(rows))
		var out []emission
		for li, lr := range left {
			if int(leftPart[li]) != p {
				continue
			}
			if li%MorselSize == 0 {
				if err := c.canceled(); err != nil {
					c.Mem.Shrink(partBytes)
					return nil, err
				}
			}
			c.Counters.HashOps++
			h := lr.Hash(lOff)
			var emitted []datum.Row
			lrMatched := false
			for _, ri := range build[h] {
				rr := rows[ri]
				if !datum.EqualOn(lr, rr, lOff, rOff) {
					continue
				}
				c.Counters.RowsProcessed++
				e.row = lr.Concat(rr)
				ok, err := c.filterRow(t.ExtraOn, e)
				if err != nil {
					c.Mem.Shrink(partBytes)
					return nil, err
				}
				if !ok {
					continue
				}
				lrMatched = true
				matched[ri] = true
				var done bool
				if emitted, done = emitJoined(t.Kind, emitted, lr, rr); done {
					break
				}
			}
			if !lrMatched {
				emitted = emitUnmatched(t.Kind, emitted, lr, rightWidth)
			}
			if len(emitted) > 0 {
				out = append(out, emission{li: int64(li), rows: emitted})
				outTotal += len(emitted)
			}
		}
		if needMatched {
			for ri := range rows {
				if !matched[ri] {
					leftovers = append(leftovers, tagged{tags[ri], rows[ri]})
				}
			}
		}
		outs[p] = out
		c.Mem.Shrink(partBytes)
	}

	// Merge partition outputs back into the serial emission order: left rows
	// in ascending index, each contributing its partition's emissions; NULL-
	// key left rows are handled inline exactly as the in-memory join would.
	cursors := make([]int, nParts)
	out := make([]datum.Row, 0, outTotal)
	for li := range left {
		p := leftPart[li]
		if p < 0 {
			out = emitUnmatched(t.Kind, out, left[li], rightWidth)
			continue
		}
		if cur := cursors[p]; cur < len(outs[p]) && outs[p][cur].li == int64(li) {
			out = append(out, outs[p][cur].rows...)
			cursors[p]++
		}
	}
	if needMatched {
		// The serial join appends unmatched build rows in build order.
		sort.Slice(leftovers, func(a, b int) bool { return leftovers[a].tag < leftovers[b].tag })
		for _, lv := range leftovers {
			out = append(out, nullRow(leftWidth).Concat(lv.row))
		}
	}
	return out, nil
}

// --- spilling hash aggregation ---

// spillGroupBy executes hash aggregation whose group table does not fit the
// budget: input rows are hash-partitioned to temp files by group key (tagged
// with their original index), each partition is aggregated on its own, and
// the final groups are ordered by the index of their first input row — which
// is exactly the in-memory table's first-seen emission order.
func (c *Ctx) spillGroupBy(in []datum.Row, layout []logical.ColumnID, keyOff []int, groupCols []logical.ColumnID, aggs []logical.AggItem) ([]datum.Row, error) {
	nParts := spillFanout(rowSetBytes(in), c.Mem.Available())
	writers := make([]*spillWriter, nParts)
	defer func() { discardAll(writers) }()
	for p := range writers {
		w, err := c.newSpillWriter()
		if err != nil {
			return nil, err
		}
		writers[p] = w
	}
	key := make(datum.Row, len(keyOff))
	for i, r := range in {
		c.Counters.HashOps++
		for j, off := range keyOff {
			key[j] = r[off]
		}
		p := int(key.Hash(seqOffsets(len(key))) % uint64(nParts))
		if err := writers[p].writeRow(int64(i), r); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := w.finish(); err != nil {
			return nil, err
		}
	}

	type taggedGroup struct {
		tag int64
		row datum.Row
	}
	var groups []taggedGroup
	e := newEnv(layout, nil)
	ectx := c.evalCtx(e)
	for p := 0; p < nParts; p++ {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		sr, err := writers[p].reader()
		if err != nil {
			return nil, err
		}
		gt := newGroupTable(len(groupCols), aggs)
		gt.mem = c.Mem
		gt.memOp = "hash aggregation partition"
		gt.floor = spillFloor
		var tags []int64
		for {
			tag, r, ok, err := sr.next()
			if err != nil {
				gt.release()
				return nil, err
			}
			if !ok {
				break
			}
			c.Counters.RowsProcessed++
			e.row = r
			k := make(datum.Row, len(keyOff))
			for j, off := range keyOff {
				k[j] = r[off]
			}
			args := make([]datum.D, len(aggs))
			for j, a := range aggs {
				if a.Arg == nil {
					args[j] = datum.NewInt(1)
					continue
				}
				v, err := logical.Eval(a.Arg, ectx)
				if err != nil {
					gt.release()
					return nil, err
				}
				args[j] = v
			}
			before := len(gt.order)
			if err := gt.add(k, k.Hash(seqOffsets(len(k))), args); err != nil {
				gt.release()
				return nil, err
			}
			if len(gt.order) > before {
				// Rows arrive in ascending tag order, so the creation tag is
				// the group's global first occurrence.
				tags = append(tags, tag)
			}
		}
		for i, row := range gt.rows() {
			groups = append(groups, taggedGroup{tags[i], row})
		}
		c.noteMemBytes(gt.charged)
		gt.release()
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].tag < groups[b].tag })
	out := make([]datum.Row, len(groups))
	for i, g := range groups {
		out[i] = g.row
	}
	c.noteMem(int64(len(out)))
	return out, nil
}

// isBudgetErr reports whether an operator failed on a memory reservation —
// the signal to degrade to its spilling implementation.
func isBudgetErr(err error) bool { return errors.Is(err, ErrMemoryBudgetExceeded) }
