// Package storage is the storage engine: columnar tables with page accounting
// and ordered (B-tree-like) secondary indexes. A table is a list of sealed
// columnar segments (segment.go) plus an unsealed row tail: inserts buffer in
// the tail and every SegmentRows rows are encoded as typed / dictionary /
// run-length column blocks with zone-map footers. What StoreConfig.Dir decides
// is only whether a segment has a file. With a directory the encoded bytes are
// published crash-consistently and scans read them back through a store-wide
// LRU block cache, so segments can be evicted: a block enters it verified,
// held decoded when the decoded column fits in the room left, else held
// encoded and decoded by row range, straight into each reader's vector.
// Without a directory the columns are decoded once at seal time and pinned on
// the segment. Row ids are positional across sealed segments then the tail.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/faultfs"
)

// PageSize is the page size in bytes: sealed segments occupy their encoded
// bytes, the unsealed tail its modeled row widths.
const PageSize = 8192

// DefaultSegmentRows is the sealed-segment row count when StoreConfig leaves
// SegmentRows zero. A multiple of the executor's morsel size, so morsels
// never straddle a segment boundary.
const DefaultSegmentRows = 4096

// defaultCacheBytes bounds the block cache when StoreConfig leaves CacheBytes
// zero.
const defaultCacheBytes = 64 << 20

// Table is the stored data for one catalog table.
type Table struct {
	Def *catalog.Table
	// rows is the unsealed tail: the rows inserted since the last seal.
	rows []datum.Row
	// bytes is the accumulated modeled width of the rows slice.
	bytes int
	// indexes are built lazily and invalidated by writes.
	indexes map[string]*IndexData
	mu      sync.RWMutex
	// store owns the block cache, the write-path fault injector and
	// the retry policy; a standalone table (NewTable) has one to itself.
	store *Store
	seg   segTable
}

// segTable is the sealed half of a Table.
type segTable struct {
	// dir holds the segment files and the manifest; empty when segments have
	// no file and keep their decoded columns pinned instead.
	dir     string
	segRows int
	// gen is bumped whenever the segments are rewritten (SortBy), so stale
	// cache entries can never be read back.
	gen        int
	nextID     int
	segs       []segMeta
	sealedRows int
	// sealedBytes is the total encoded size of the sealed segments.
	sealedBytes int64
	// dicts interns the dictionaries of the dictionary blocks of this
	// generation read or pinned so far.
	dicts dictSet
}

// NewTable creates empty standalone storage for a catalog table: a default
// store of its own, no directory.
func NewTable(def *catalog.Table) *Table { return NewStore().newTable(def) }

func (s *Store) newTable(def *catalog.Table) *Table {
	return &Table{Def: def, indexes: make(map[string]*IndexData), store: s, seg: segTable{segRows: s.cfg.SegmentRows}}
}

// validateRow checks arity, kinds and NOT NULL against the table definition.
func (t *Table) validateRow(row datum.Row) error {
	if len(row) != len(t.Def.Cols) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d", t.Def.Name, len(t.Def.Cols), len(row))
	}
	for i, d := range row {
		col := t.Def.Cols[i]
		if d.IsNull() {
			if col.NotNull {
				return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Def.Name, col.Name)
			}
			continue
		}
		if d.Kind() != col.Kind && !(d.Kind().Numeric() && col.Kind.Numeric()) {
			return fmt.Errorf("storage: column %s.%s expects %s, got %s", t.Def.Name, col.Name, col.Kind, d.Kind())
		}
	}
	return nil
}

// Insert appends a row. The row must match the table arity and column kinds
// (NULLs allowed unless the column is NOT NULL).
func (t *Table) Insert(row datum.Row) error {
	return t.InsertBatch([]datum.Row{row})
}

// InsertBatch inserts many rows atomically: every row is validated before any
// is appended, the lock is taken once, and indexes are invalidated once —
// not the insert-per-row loop this used to be, which re-allocated the index
// map for every single row. Full SegmentRows chunks of the tail are sealed
// before the lock is released.
func (t *Table) InsertBatch(rows []datum.Row) error {
	for _, r := range rows {
		if err := t.validateRow(r); err != nil {
			return err
		}
	}
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		t.rows = append(t.rows, r.Clone())
		t.bytes += r.Size()
	}
	if len(t.indexes) > 0 {
		t.indexes = make(map[string]*IndexData) // invalidate
	}
	return t.sealChunksLocked(t.chunkSizes(len(t.rows), false))
}

// Flush seals the unsealed tail into a (possibly short) segment, making every
// row durable. A durability operation only: a table without a directory has
// nothing to make durable and keeps its tail.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealChunksLocked(t.chunkSizes(len(t.rows), true))
}

// chunkSizes splits n rows into seal sizes: the full SegmentRows chunks, then
// — when flush asks for it and the segments have files, so that a short
// segment buys durability — one short chunk for the remainder. Without files
// the remainder stays in the tail, which keeps tables smaller than
// SegmentRows unsealed.
func (t *Table) chunkSizes(n int, flush bool) []int {
	sizes := make([]int, n/t.seg.segRows)
	for i := range sizes {
		sizes[i] = t.seg.segRows
	}
	if rem := n % t.seg.segRows; rem > 0 && flush && t.seg.dir != "" {
		sizes = append(sizes, rem)
	}
	return sizes
}

// pendingSeg is one encoded-but-not-yet-adopted segment.
type pendingSeg struct {
	sm  segMeta
	raw []byte
}

// encodeChunk encodes rows as one pending segment with the given id and
// start row. Pure computation plus the historical "segment.create"/
// "segment.write" encode fault streams; touches no table state.
func (t *Table) encodeChunk(rows []datum.Row, id, startRow int) (pendingSeg, error) {
	vecs := make([]*datum.Vec, len(t.Def.Cols))
	for ci, col := range t.Def.Cols {
		v := datum.NewVec(col.Kind, len(rows))
		v.AppendRowsCol(rows, ci)
		vecs[ci] = v
	}
	raw, metas, err := encodeSegment(vecs, t.store.cfg.Faults, !t.store.cfg.DisableCompression)
	if err != nil {
		return pendingSeg{}, err
	}
	sm := segMeta{id: id, startRow: startRow, rows: len(rows), bytes: int64(len(raw)), cols: metas}
	return pendingSeg{sm: sm, raw: raw}, nil
}

// publishLocked makes a batch of pending segments readable. Without a
// directory that is decoding each column block once and pinning the vectors
// on the segment; the encoded bytes are dropped. With one it is the
// durability protocol: each file (named under generation gen) is checksummed,
// written to a temp sibling, fsynced and renamed; the directory is fsynced
// once; then one manifest record (built by rec from the entries) adopts them
// all, and if that record switched generations the files of the one still
// serving are deleted best-effort — the manifest no longer references them,
// so a crash mid-delete only leaves quarantine fodder. Any error leaves the
// table state untouched — unpublished files are recovery's quarantine fodder.
// Transient faults are retried per step. Caller holds t.mu.
func (t *Table) publishLocked(pend []pendingSeg, gen int, rec func([]manEntry) string) error {
	if t.seg.dir == "" {
		for i := range pend {
			p := &pend[i]
			p.sm.pinned = make([]*block, len(p.sm.cols))
			for ci, cm := range p.sm.cols {
				v, err := decodeBlock(p.raw[cm.off:cm.off+cm.blockLen], p.sm.rows, &t.seg.dicts)
				if err != nil {
					return fmt.Errorf("storage: pinning %s segment %d column %d: %w", t.Def.Name, p.sm.id, ci, err)
				}
				p.sm.pinned[ci] = &block{vec: v}
			}
			p.raw = nil
		}
		return nil
	}
	faults := t.store.cfg.Faults
	entries := make([]manEntry, len(pend))
	for i := range pend {
		p := &pend[i]
		p.sm.fileCRC = crc32.Checksum(p.raw, crcTable)
		entries[i] = manEntry{file: segFileName(gen, p.sm.id), id: p.sm.id, rows: p.sm.rows, bytes: p.sm.bytes, crc: p.sm.fileCRC}
		path := filepath.Join(t.seg.dir, entries[i].file)
		raw := p.raw
		if err := t.store.retryIO(func() error { return writeSegmentFile(path, raw, faults) }); err != nil {
			return err
		}
	}
	if err := t.store.retryIO(func() error { return syncDir(t.seg.dir, faults) }); err != nil {
		return err
	}
	// The base offset is captured once, outside the retry loop: each attempt
	// truncates back to it before writing, so a transient failure after the
	// bytes hit the file cannot leave the record behind to be appended twice
	// (replay would adopt every segment twice) or strand torn bytes in the
	// manifest interior.
	base, err := manifestSize(t.seg.dir)
	if err != nil {
		return err
	}
	if err := t.store.retryIO(func() error { return appendManifest(t.seg.dir, rec(entries), base, faults) }); err != nil {
		return err
	}
	if gen != t.seg.gen {
		for _, sm := range t.seg.segs {
			os.Remove(t.segPath(sm.id))
		}
	}
	return nil
}

// adoptLocked appends published segments to the table state. Caller holds
// t.mu.
func (t *Table) adoptLocked(pend []pendingSeg) {
	for _, p := range pend {
		t.seg.segs = append(t.seg.segs, p.sm)
		t.seg.nextID = p.sm.id + 1
		t.seg.sealedRows += p.sm.rows
		t.seg.sealedBytes += p.sm.bytes
	}
}

// sealChunksLocked seals consecutive chunks from the front of the tail —
// sizes[i] rows each — as one atomically-adopted batch: all segments are
// prepared and published (under a single manifest record), and only then is
// the in-memory state mutated. A failure anywhere leaves both the disk state
// (a manifest generation) and the in-memory tail (every buffered row still
// buffered, counted once) exactly as before the call, so a later Flush
// simply retries. Caller holds t.mu.
func (t *Table) sealChunksLocked(sizes []int) error {
	if len(sizes) == 0 {
		return nil
	}
	pend := make([]pendingSeg, len(sizes))
	off := 0
	for i, n := range sizes {
		p, err := t.encodeChunk(t.rows[off:off+n], t.seg.nextID+i, t.seg.sealedRows+off)
		if err != nil {
			return err
		}
		pend[i] = p
		off += n
	}
	if err := t.publishLocked(pend, t.seg.gen, func(entries []manEntry) string {
		parts := make([]string, 1, len(entries)+1)
		parts[0] = "add"
		for _, e := range entries {
			parts = append(parts, e.String())
		}
		return strings.Join(parts, " ")
	}); err != nil {
		return err
	}
	// Commit point passed: adopt in memory.
	t.adoptLocked(pend)
	for _, r := range t.rows[:off] {
		t.bytes -= r.Size()
	}
	// A fresh slice, not t.rows[:0]: the old backing array would keep every
	// sealed row reachable.
	t.rows = append([]datum.Row(nil), t.rows[off:]...)
	return nil
}

// segFileName names a segment file by generation and id; zero-padded so
// lexicographic order matches adoption order within a generation.
func segFileName(gen, id int) string {
	return fmt.Sprintf("seg-%06d-%06d.seg", gen, id)
}

func (t *Table) segPath(id int) string {
	return filepath.Join(t.seg.dir, segFileName(t.seg.gen, id))
}

// columnLocked returns column ord of segment si as a block to read rows
// from: decoded — the pinned column of a segment without a file, or a
// decoded cache entry — or encoded, from the cache. A miss reads the block
// (retrying transient faults) and caches it in the form the cache chooses.
// Segments soft-adopted as corrupt at recovery fail immediately with their
// typed error. Caller holds t.mu (read or write).
func (t *Table) columnLocked(sc *ScanCtx, si, ord int) (*block, error) {
	sm := &t.seg.segs[si]
	if sm.pinned != nil {
		return sm.pinned[ord], nil
	}
	if sm.corrupt != nil {
		return nil, sm.corrupt
	}
	cache := t.store.cache
	key := blockKey{tab: t, gen: t.seg.gen, seg: sm.id, ord: ord}
	if e := cache.get(key); e != nil {
		sc.addHit()
		return e.blk, nil
	}
	var b *block
	if err := t.store.retryIO(func() (err error) {
		b, err = t.readBlock(sc, sm, ord)
		return err
	}); err != nil {
		return nil, err
	}
	e := &cacheEntry{key: key, blk: b, bytes: b.cacheBytes()}
	if b.vec != nil || cache.fits(b.decodedBytes()) {
		v, err := b.decode()
		if err != nil {
			return nil, t.blockErr(sm, ord, "block decode: %v", err)
		}
		e = &cacheEntry{key: key, blk: &block{vec: v}, bytes: vecCacheBytes(v)}
	}
	cache.put(e)
	return e.blk, nil
}

// readBlock reads, CRC-verifies and parses column ord of segment sm from its
// file, checking the fault streams and counting the read in sc. The block
// cache makes a block pay its checksum once. StoreConfig.DisableChecksums is
// the benchmark A/B arm and the escape hatch for salvage reads.
func (t *Table) readBlock(sc *ScanCtx, sm *segMeta, ord int) (*block, error) {
	if err := sc.check("segment.open"); err != nil {
		return nil, err
	}
	path := t.segPath(sm.id)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := sc.check("segment.read"); err != nil {
		return nil, err
	}
	cm := &sm.cols[ord]
	raw := make([]byte, cm.blockLen)
	if _, err := f.ReadAt(raw, cm.off); err != nil {
		return nil, fmt.Errorf("storage: reading %s column %d: %w", path, ord, err)
	}
	if !t.store.cfg.DisableChecksums {
		if got := crc32.Checksum(raw, crcTable); got != cm.crc {
			return nil, t.blockErr(sm, ord, "block checksum %08x, want %08x", got, cm.crc)
		}
	}
	b, err := parseBlock(raw, sm.rows, &t.seg.dicts)
	if err != nil {
		return nil, t.blockErr(sm, ord, "block decode: %v", err)
	}
	sc.addMiss(cm.blockLen, cm.repr)
	return b, nil
}

// blockErr reports corruption of column ord of segment sm, with its
// coordinates.
func (t *Table) blockErr(sm *segMeta, ord int, format string, a ...any) error {
	return &CorruptError{Table: t.Def.Name, Segment: sm.id, Path: t.segPath(sm.id), Region: RegionBlock,
		Column: ord, Offset: sm.cols[ord].off, Detail: fmt.Sprintf(format, a...)}
}

// vecCacheBytes is the cache charge of a decoded column vector: the actual
// heap payload it pins, so the cache budget is honest for string-heavy
// tables (a string column charges the sum of its string lengths plus a
// header per slot, not the encoded block length). Dictionary columns charge
// 8 bytes per code plus the dictionary payload — the compression win shows
// up as more columns fitting in the same budget. A run-length column decodes
// expanded and charges the expanded size; held encoded, it charges its runs.
func vecCacheBytes(v *datum.Vec) int64 {
	n := int64(v.Len())
	var b int64
	switch {
	case v.Boxed():
		for i := 0; i < v.Len(); i++ {
			b += int64(v.D(i).Size())
		}
		b += 16 * n // slot overhead of the []D backing
	case v.Dict != nil:
		b = 8*n + v.Dict.Bytes()
	default:
		switch v.Kind() {
		case datum.KindInt, datum.KindBool, datum.KindFloat:
			b = 8 * n
		case datum.KindString:
			for _, s := range v.Strs {
				b += int64(16 + len(s))
			}
		}
	}
	if v.NumNulls() > 0 {
		b += (n + 63) / 64 * 8
	}
	return b
}

// segIndexLocked returns the index of the segment containing row id (which
// must be < sealedRows).
func (t *Table) segIndexLocked(id int) int {
	segs := t.seg.segs
	return sort.Search(len(segs), func(i int) bool {
		return segs[i].startRow+segs[i].rows > id
	})
}

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowCountLocked()
}

func (t *Table) rowCountLocked() int {
	return t.seg.sealedRows + len(t.rows)
}

// PageCount returns the number of pages the table occupies: the encoded
// bytes of the sealed segments plus the modeled width of the tail.
func (t *Table) PageCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return pagesOf(t.seg.sealedBytes + int64(t.bytes))
}

func pagesOf(bytes int64) int {
	return int((bytes + PageSize - 1) / PageSize)
}

// Rows materializes every stored row. Callers must not mutate them.
func (t *Table) Rows(sc *ScanCtx) ([]datum.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsRangeLocked(sc, 0, t.rowCountLocked())
}

// rowsRangeLocked materializes rows [lo, hi) from one range fill per column.
// Caller holds t.mu.
func (t *Table) rowsRangeLocked(sc *ScanCtx, lo, hi int) ([]datum.Row, error) {
	if hi <= lo {
		return nil, nil
	}
	ncols := len(t.Def.Cols)
	cols := make([]*datum.Vec, ncols)
	for ci, col := range t.Def.Cols {
		cols[ci] = datum.NewVec(col.Kind, hi-lo)
		if err := t.fillColumnRangeLocked(sc, ci, lo, hi, cols[ci]); err != nil {
			return nil, err
		}
	}
	out := make([]datum.Row, hi-lo)
	for i := range out {
		out[i] = make(datum.Row, ncols)
		for ci, v := range cols {
			out[i][ci] = v.D(i)
		}
	}
	return out, nil
}

// Row returns the row with the given row id.
func (t *Table) Row(sc *ScanCtx, id int) (datum.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows, err := t.rowsRangeLocked(sc, id, id+1)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// FillColumnRange appends column ord of rows [lo, hi) to v — the
// batch-granular scan API of the vectorized execution path: one lock
// acquisition and one column fill per morsel instead of a row-at-a-time
// iterator. Sealed rows bulk-copy out of decoded segment columns
// (Vec.AppendRange) or decode from cached encoded blocks straight into v;
// tail rows take the typed bulk-append fast path (Vec.AppendRowsCol). Values
// whose dynamic kind disagrees with v's kind (numeric coercion allows that)
// switch v to its boxed representation, so the fill itself never fails —
// only segment I/O and decoding can.
func (t *Table) FillColumnRange(sc *ScanCtx, ord, lo, hi int, v *datum.Vec) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.fillColumnRangeLocked(sc, ord, lo, hi, v)
}

func (t *Table) fillColumnRangeLocked(sc *ScanCtx, ord, lo, hi int, v *datum.Vec) error {
	pos := lo
	for pos < hi && pos < t.seg.sealedRows {
		si := t.segIndexLocked(pos)
		sm := &t.seg.segs[si]
		segHi := min(hi-sm.startRow, sm.rows)
		blk, err := t.columnLocked(sc, si, ord)
		if err != nil {
			return err
		}
		if err := blk.read(v, rowSet{lo: pos - sm.startRow, hi: segHi}); err != nil {
			return t.blockErr(sm, ord, "block decode: %v", err)
		}
		pos = sm.startRow + segHi
	}
	if pos < hi {
		v.AppendRowsCol(t.rows[pos-t.seg.sealedRows:hi-t.seg.sealedRows], ord)
	}
	return nil
}

// FillColumnIDs appends column ord of the rows with the given ids to v, in
// id order — the gather form of the batch scan API used by index scans and
// late materialization of filtered scans. Ids are usually ascending (selection
// vectors, index postings), so the list is walked in runs that stay inside one
// segment: one column read and one typed gather per run, which decodes only
// the rows of its ids from an encoded block. Ids in any other order only make
// the runs shorter; tail rows append one by one.
func (t *Table) FillColumnIDs(sc *ScanCtx, ord int, ids []int, v *datum.Vec) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for len(ids) > 0 {
		id := ids[0]
		if id >= t.seg.sealedRows {
			v.AppendD(t.rows[id-t.seg.sealedRows][ord])
			ids = ids[1:]
			continue
		}
		si := t.segIndexLocked(id)
		sm := &t.seg.segs[si]
		n, lo, hi := 1, sm.startRow, sm.startRow+sm.rows
		for n < len(ids) && ids[n] >= lo && ids[n] < hi {
			n++
		}
		blk, err := t.columnLocked(sc, si, ord)
		if err != nil {
			return err
		}
		if err := blk.read(v, rowSet{lo: sm.startRow, ids: ids[:n]}); err != nil {
			return t.blockErr(sm, ord, "block decode: %v", err)
		}
		ids = ids[n:]
	}
	return nil
}

// SortBy physically reorders the table by the given sort spec — used to
// realize a clustered index. The table is rewritten: all rows (sealed and
// tail) are re-sealed from the sorted order under a new cache generation.
// With a directory SortBy also implies a Flush — the tail is empty afterwards
// and no previously durable row loses durability.
func (t *Table) SortBy(spec []datum.SortSpec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	all, err := t.rowsRangeLocked(nil, 0, t.rowCountLocked())
	if err != nil {
		return err
	}
	sort.SliceStable(all, func(i, j int) bool {
		return datum.CompareRows(all[i], all[j], spec) < 0
	})
	if err := t.rewriteLocked(all); err != nil {
		return err
	}
	t.indexes = make(map[string]*IndexData)
	return nil
}

// rewriteLocked replaces all sealed segments and the tail with the given
// rows: the new generation is fully published (by one manifest "switch"
// record) before any in-memory state changes, so a failure anywhere leaves
// the old generation serving untouched (new-gen orphans are quarantined at
// the next recovery). The chunking is a flush's — full segments plus, where
// segments have files, a final short one for any remainder — because the
// switch record deletes the old generation, and rows that were durable before
// the rewrite (a previously Flushed short segment, now shuffled anywhere in
// the sorted order) must stay durable after it. Caller holds t.mu.
func (t *Table) rewriteLocked(all []datum.Row) error {
	newGen := t.seg.gen + 1
	// The new generation's pinned columns decode while it is published:
	// forget the old generation's dictionaries first. Interning only shares
	// pointers, so a failed rewrite merely shares fewer.
	t.seg.dicts.reset()
	sizes := t.chunkSizes(len(all), true)
	pend := make([]pendingSeg, len(sizes))
	off := 0
	for i, n := range sizes {
		p, err := t.encodeChunk(all[off:off+n], i, off)
		if err != nil {
			return err
		}
		pend[i] = p
		off += n
	}
	if err := t.publishLocked(pend, newGen, func(entries []manEntry) string {
		parts := make([]string, 2, len(entries)+2)
		parts[0], parts[1] = "switch", fmt.Sprintf("%d", newGen)
		for _, e := range entries {
			parts = append(parts, e.String())
		}
		return strings.Join(parts, " ")
	}); err != nil {
		return err
	}
	// Commit point passed: swap in the new generation.
	t.store.cache.dropTable(t)
	t.seg.gen = newGen
	t.seg.segs = nil
	t.seg.nextID = 0
	t.seg.sealedRows = 0
	t.seg.sealedBytes = 0
	t.adoptLocked(pend)
	t.rows = append([]datum.Row(nil), all[off:]...)
	t.bytes = 0
	for _, r := range t.rows {
		t.bytes += r.Size()
	}
	return nil
}

// SegmentLayout returns the sealed segments in row order, or nil when
// nothing is sealed yet. Rows at ids >= the last segment's end live in the
// unsealed tail.
func (t *Table) SegmentLayout() []SegmentInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.seg.segs) == 0 {
		return nil
	}
	out := make([]SegmentInfo, len(t.seg.segs))
	for i, sm := range t.seg.segs {
		out[i] = SegmentInfo{ID: sm.id, StartRow: sm.startRow, Rows: sm.rows, Bytes: sm.bytes}
	}
	return out
}

// SegmentDispositions confronts each sealed segment's zone maps with the
// compiled predicate conjunction. A nil or empty preds slice yields ZoneSome
// everywhere (nothing can be eliminated, nothing is known to fully match).
func (t *Table) SegmentDispositions(preds []ZonePred) []ZoneDisp {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.seg.segs) == 0 {
		return nil
	}
	out := make([]ZoneDisp, len(t.seg.segs))
	for i := range t.seg.segs {
		if len(preds) == 0 {
			out[i] = ZoneSome
			continue
		}
		out[i] = dispSegment(&t.seg.segs[i], preds)
	}
	return out
}

// PrunedPageCount returns the table's page count with zone-map-eliminated
// segments removed — what a sequential scan under the given predicates
// actually reads. Returns -1 when the table has no sealed segments (nothing
// to prune against).
func (t *Table) PrunedPageCount(preds []ZonePred) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.seg.segs) == 0 {
		return -1
	}
	var bytes int64
	for i := range t.seg.segs {
		if dispSegment(&t.seg.segs[i], preds) != ZoneNone {
			bytes += t.seg.segs[i].bytes
		}
	}
	bytes += int64(t.bytes) // unsealed tail is always read
	return pagesOf(bytes)
}

// SegColStats is the per-column summary derived from sealed-segment footers.
type SegColStats struct {
	NullCount int
	// Distinct is the linear-counting estimate over the unioned per-segment
	// sketches — coarse (the 256-bit sketch saturates around a few hundred
	// values) but free.
	Distinct float64
	HasZone  bool
	Min, Max datum.D
}

// SegmentStats aggregates sealed-segment metadata into table-level shape:
// the coarse statistics the optimizer falls back on when ANALYZE-built stats
// are missing or stale. ok is false when the table has no sealed segments.
// Rows counts sealed rows only; TotalRows includes the unsealed tail.
func (t *Table) SegmentStats() (rows, totalRows, pages int, cols []SegColStats, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.seg.segs) == 0 {
		return 0, 0, 0, nil, false
	}
	ncols := len(t.Def.Cols)
	cols = make([]SegColStats, ncols)
	sketches := make([][sketchBytes]byte, ncols)
	for si := range t.seg.segs {
		sm := &t.seg.segs[si]
		for ci := 0; ci < ncols && ci < len(sm.cols); ci++ {
			cm := &sm.cols[ci]
			cs := &cols[ci]
			cs.NullCount += cm.nullCount
			unionSketch(&sketches[ci], cm.sketch)
			if cm.hasZone {
				if !cs.HasZone {
					cs.HasZone, cs.Min, cs.Max = true, cm.min, cm.max
				} else {
					if datum.Compare(cm.min, cs.Min) < 0 {
						cs.Min = cm.min
					}
					if datum.Compare(cm.max, cs.Max) > 0 {
						cs.Max = cm.max
					}
				}
			}
		}
	}
	rows = t.seg.sealedRows
	for ci := range cols {
		cols[ci].Distinct = sketchDistinct(sketches[ci], float64(rows-cols[ci].NullCount))
	}
	totalRows = t.rowCountLocked()
	return rows, totalRows, pagesOf(t.seg.sealedBytes + int64(t.bytes)), cols, true
}

// StoreConfig holds the storage knobs.
type StoreConfig struct {
	// Dir, when non-empty, gives segments files: each table publishes its
	// sealed segments under Dir/<table>/ and reads them back through the
	// block cache. Empty keeps sealed segments decoded and pinned in memory.
	Dir string
	// SegmentRows is the sealed-segment row count (DefaultSegmentRows when
	// zero). Should stay a multiple of the executor's morsel size.
	SegmentRows int
	// CacheBytes bounds the store-wide LRU block cache (defaultCacheBytes
	// when zero). Only segments with files go through it. A block read from
	// its file is CRC-checked once and cached decoded when the decoded column
	// fits in the room left without an eviction, else encoded — its bytes,
	// NULL bitmap and interned dictionary, charged at that size — and decoded
	// by row range on every read. No entry holds both forms.
	CacheBytes int64
	// Faults, when non-nil, injects errors into the segment write path
	// (the "segment.create"/"segment.write" encode streams plus the
	// durability sites "segment.writefile", "segment.fsync",
	// "segment.rename", "dir.fsync", "manifest.append", "manifest.fsync").
	// The read path takes its injector per-scan via ScanCtx instead.
	Faults *faultfs.Injector
	// IORetries is how many times a transient I/O fault (one matching
	// faultfs.ErrTransient) is retried before propagating. 0 disables
	// retries; permanent faults always propagate immediately.
	IORetries int
	// IORetryBackoff is the sleep before the first retry, doubling each
	// further attempt.
	IORetryBackoff time.Duration
	// DisableChecksums skips CRC verification on block decode — the
	// benchmark A/B arm for measuring checksum overhead, and an escape
	// hatch for salvage reads. Writes still record checksums.
	DisableChecksums bool
	// DisableCompression forces every column block to the plain layout at
	// seal time — the benchmark A/B arm for measuring what dictionary and
	// run-length encoding buy. Reads are unaffected: compressed blocks
	// written earlier still decode.
	DisableCompression bool
}

// Store maps table names to stored tables.
type Store struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	cfg      StoreConfig
	cache    *blockCache
	recovery []*RecoveryReport
}

// retryIO runs f, retrying transient faults (faultfs.ErrTransient) up to
// cfg.IORetries times with exponential backoff. Permanent errors propagate
// on first occurrence.
func (s *Store) retryIO(f func() error) error {
	backoff := s.cfg.IORetryBackoff
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil || !errors.Is(err, faultfs.ErrTransient) || attempt >= s.cfg.IORetries {
			return err
		}
		if backoff > 0 {
			time.Sleep(backoff << attempt)
		}
	}
}

// NewStore returns an empty store without a directory.
func NewStore() *Store { return NewStoreWith(StoreConfig{}) }

// NewStoreWith returns an empty store configured by cfg.
func NewStoreWith(cfg StoreConfig) *Store {
	s := &Store{tables: make(map[string]*Table), cfg: cfg}
	if s.cfg.SegmentRows <= 0 {
		s.cfg.SegmentRows = DefaultSegmentRows
	}
	if s.cfg.CacheBytes <= 0 {
		s.cfg.CacheBytes = defaultCacheBytes
	}
	s.cache = newBlockCache(s.cfg.CacheBytes)
	return s
}

// DiskBacked reports whether sealed segments have files.
func (s *Store) DiskBacked() bool { return s.cfg.Dir != "" }

// CreateTable allocates storage for a catalog table. With a directory, the
// table's directory is *recovered*, not merely listed: the manifest is
// replayed (truncating any torn tail), listed segments are verified and
// adopted — corrupt ones softly, preserving the row-id space — and files
// the manifest never published are quarantined into lost/. Restarting an
// engine over the same StorageDir therefore sees exactly the state of the
// last committed operation. The findings land in Store.Recovery().
func (s *Store) CreateTable(def *catalog.Table) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := strings.ToLower(def.Name)
	if _, ok := s.tables[k]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", def.Name)
	}
	t := s.newTable(def)
	if s.cfg.Dir != "" {
		t.seg.dir = filepath.Join(s.cfg.Dir, k)
		if err := os.MkdirAll(t.seg.dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: creating table directory: %w", err)
		}
		rep, err := t.recoverLocked()
		if err != nil {
			return nil, err
		}
		s.recovery = append(s.recovery, rep)
	}
	s.tables[k] = t
	return t, nil
}

// FlushAll flushes every table (see Table.Flush).
func (s *Store) FlushAll() error {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	for _, t := range tables {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Table looks up stored data by table name.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}
