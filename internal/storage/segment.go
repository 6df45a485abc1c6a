// Columnar segments: the sealed format of every table, and the file format
// of tables that have a directory. A segment holds a fixed row range of one
// table as typed column blocks (mirroring datum.Vec: []int64 / []float64 /
// []string payloads plus a packed NULL bitmap, with a boxed per-datum
// fallback for mixed-kind columns), followed by a footer carrying per-column
// min/max zone maps, NULL counts and a small linear-counting distinct sketch.
// Zone maps let scans eliminate segments a predicate cannot match without
// touching their bytes, and the footer metadata doubles as a coarse histogram
// for the optimizer when table-level statistics are stale.
//
// Encoding: uvarint counts, varint integers, raw little-endian float bits
// (math.Float64bits, so every NaN payload and signed zero round-trips
// exactly), uvarint-length strings, and a kind byte per boxed datum. The
// executor's spill files are sequences of the same column blocks
// (AppendColumnBlock, DecodeColumnBlock).
package storage

import (
	"bytes"
	"cmp"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/datum"
	"repro/internal/faultfs"
)

// segMagic trails every segment file; it doubles as a format version tag.
// Version 2 added CRC32C integrity: one checksum per column block and one
// over the footer, both verified on decode. Version 3 adds compressed block
// representations (dictionary and run-length). Version 4 chooses zone bounds
// under datum.Compare's exact INT/FLOAT order; before it, an INT was rounded
// to a float, so a numeric bound of magnitude 2^53 or more may stand for an
// unequal INT that rounds to it, and decodeFooter drops such a zone from a
// version-2 or -3 file. New segments are written as version 4; older files
// otherwise decode unchanged (they simply never contain the newer reprs), so
// stores sealed before an upgrade keep serving without a rewrite. Version-1
// files fail the magic check and are quarantined at recovery rather than
// trusted.
const segMagic = "QOPTSEG4"

// Earlier format versions, still accepted on read.
const (
	segMagicV2 = "QOPTSEG2"
	segMagicV3 = "QOPTSEG3"
)

// crcTable is the Castagnoli polynomial shared by every storage checksum
// (column blocks, footers, whole files in the manifest, manifest records) —
// the same CRC32C most storage engines use, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sketchBytes is the size of the per-column distinct sketch: a 256-bit
// linear-counting bitmap (distinct values hash to bits; the zero-bit count
// estimates cardinality).
const sketchBytes = 32

// Column block representations.
const (
	reprTyped byte = 0 // typed payload + NULL bitmap
	reprBoxed byte = 1 // per-datum kind byte + payload (mixed-kind columns)
	reprDict  byte = 2 // sorted string dictionary + per-row codes (low-NDV strings)
	reprRLE   byte = 3 // run-length: (length, value) pairs for long constant runs
)

// dictMaxSize is the hard cap on dictionary entries: a string column whose
// exact distinct count (per segment) is at most this many values is
// dictionary-encoded; one more value and it stays plain. The footer sketch
// only pre-filters — the exact count decides, so the threshold is
// deterministic regardless of sketch collisions.
const dictMaxSize = 256

// rleMinRows / rleMaxRunRatio gate run-length encoding: the column must have
// at least rleMinRows rows and average at least rleMaxRunRatio rows per run
// (runs ≤ n/rleMaxRunRatio). Short segments and high-churn columns stay in
// the plain representation, which decodes with one bulk copy.
const (
	rleMinRows     = 64
	rleMaxRunRatio = 8
)

// ScanCtx threads fault injection and real-I/O accounting from the executor
// into storage reads. A nil ScanCtx disables both, so internal callers
// (index builds, stats collection) can pass nil. One ScanCtx belongs to one
// goroutine; parallel workers each carry their own and fold its ReadStats
// into their counters at pipeline barriers.
type ScanCtx struct {
	// Faults, when non-nil, is checked on the "segment.open" and
	// "segment.read" operation streams on every block miss, before the
	// segment's file is opened (at its first miss only) and read.
	Faults *faultfs.Injector
	ReadStats
}

// ReadStats counts the column reads of segments with files. BytesRead is the
// bytes actually read from segment files, and BlocksDict / BlocksRLE /
// BlocksPlain count those reads (cache misses) by block representation, so
// EXPLAIN ANALYZE can report how much of a scan ran over encoded data;
// BlockHits counts the column reads the block cache served, in either form.
// Pinned segments count nowhere, which is what makes cold-vs-warm
// benchmarks honest.
type ReadStats struct {
	BytesRead   int64
	BlockHits   int64
	BlocksDict  int64
	BlocksRLE   int64
	BlocksPlain int64
}

// Add adds o's counts to s.
func (s *ReadStats) Add(o ReadStats) {
	s.BytesRead += o.BytesRead
	s.BlockHits += o.BlockHits
	s.BlocksDict += o.BlocksDict
	s.BlocksRLE += o.BlocksRLE
	s.BlocksPlain += o.BlocksPlain
}

// Since returns the counts s gained after it held base.
func (s ReadStats) Since(base ReadStats) ReadStats {
	return ReadStats{s.BytesRead - base.BytesRead, s.BlockHits - base.BlockHits,
		s.BlocksDict - base.BlocksDict, s.BlocksRLE - base.BlocksRLE, s.BlocksPlain - base.BlocksPlain}
}

func (sc *ScanCtx) check(op string) error {
	if sc == nil || sc.Faults == nil {
		return nil
	}
	return sc.Faults.Check(op)
}

// addMiss counts a block read from its file: its bytes and representation.
func (sc *ScanCtx) addMiss(bytes int64, repr byte) {
	if sc == nil {
		return
	}
	sc.BytesRead += bytes
	switch repr {
	case reprDict:
		sc.BlocksDict++
	case reprRLE:
		sc.BlocksRLE++
	default:
		sc.BlocksPlain++
	}
}

func (sc *ScanCtx) addHit() {
	if sc != nil {
		sc.BlockHits++
	}
}

// colMeta is the decoded footer entry for one column block.
type colMeta struct {
	repr      byte
	kind      datum.Kind
	off       int64
	blockLen  int64
	crc       uint32 // CRC32C of the block bytes, verified on decode
	nullCount int
	// hasZone reports whether min/max form a usable zone map: whether the
	// column has a non-NULL value. min and max are under datum.Compare, where
	// a NaN is the least number.
	hasZone  bool
	min, max datum.D
	sketch   [sketchBytes]byte
}

// segMeta describes one sealed segment of a table.
type segMeta struct {
	id       int
	startRow int
	rows     int
	bytes    int64 // encoded size (the file size, when there is a file)
	fileCRC  uint32
	cols     []colMeta
	// pinned, when non-nil, holds the decoded columns of a segment that has
	// no file (a table without a directory): the data itself, never evicted.
	pinned []*block
	// corrupt, when non-nil, marks a manifest-listed segment whose file failed
	// verification at recovery. The segment is soft-adopted — rows comes from
	// the manifest so the table's row-id space stays intact and unaffected
	// segments keep serving — but any read of it returns this error.
	corrupt *CorruptError
}

// SegmentInfo is the public shape of a sealed segment, exposed so the
// executor can reason about row ranges and charge per-segment pages.
type SegmentInfo struct {
	ID       int
	StartRow int
	Rows     int
	Bytes    int64
}

// --- per-datum encode/decode (spill conventions) ---

func appendD(buf *bytes.Buffer, d datum.D) {
	var tmp [binary.MaxVarintLen64]byte
	buf.WriteByte(byte(d.Kind()))
	switch d.Kind() {
	case datum.KindNull:
	case datum.KindBool:
		if d.Bool() {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case datum.KindInt:
		buf.Write(tmp[:binary.PutVarint(tmp[:], d.Int())])
	case datum.KindFloat:
		binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(d.Float()))
		buf.Write(tmp[:8])
	case datum.KindString:
		s := d.Str()
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
		buf.WriteString(s)
	}
}

// byteReader decodes from a byte slice with explicit error state, so corrupt
// or truncated files surface as errors instead of panics.
type byteReader struct {
	b   []byte
	off int
}

var (
	errTruncated = errors.New("storage: truncated segment data")
	// errVarintOverflow is the error binary.ReadUvarint reports for a varint
	// longer than 64 bits.
	errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")
)

func (r *byteReader) ReadByte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errTruncated
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, errTruncated
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

// uvarint decodes a uvarint in place, with the errors binary.ReadUvarint
// gives over ReadByte: ten continuation bytes overflow even at the end of the
// data, fewer are truncated.
func (r *byteReader) uvarint() (uint64, error) {
	x, off, err := uvarint(r.b, r.off)
	r.off = off
	return x, err
}

// varint decodes a zig-zag varint, as binary.ReadVarint does.
func (r *byteReader) varint() (int64, error) {
	ux, err := r.uvarint()
	return unzigzag(ux), err
}

func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// uvarint decodes the uvarint at b[off:], returning it and the offset past
// it (off on an error). The decode loop of integer blocks inlines its one-
// and two-byte cases.
func uvarint(b []byte, off int) (uint64, int, error) {
	x, n := binary.Uvarint(b[min(off, len(b)):])
	switch {
	case n > 0:
		return x, off + n, nil
	case n < 0 || len(b)-off >= binary.MaxVarintLen64:
		return 0, off, errVarintOverflow
	}
	return 0, off, errTruncated
}

func decodeD(r *byteReader) (datum.D, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return datum.Null, err
	}
	switch datum.Kind(kb) {
	case datum.KindNull:
		return datum.Null, nil
	case datum.KindBool:
		b, err := r.ReadByte()
		if err != nil {
			return datum.Null, err
		}
		return datum.NewBool(b != 0), nil
	case datum.KindInt:
		v, err := r.varint()
		if err != nil {
			return datum.Null, err
		}
		return datum.NewInt(v), nil
	case datum.KindFloat:
		b, err := r.take(8)
		if err != nil {
			return datum.Null, err
		}
		return datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case datum.KindString:
		n, err := r.uvarint()
		if err != nil {
			return datum.Null, err
		}
		b, err := r.take(int(n))
		if err != nil {
			return datum.Null, err
		}
		return datum.NewString(string(b)), nil
	}
	return datum.Null, fmt.Errorf("storage: unknown datum kind byte %d", kb)
}

// --- column block encode/decode ---

// sameExact reports whether two datums are the same stored value, down to
// the float bit pattern (so -0.0 and 0.0, or distinct NaN payloads, never
// merge into one run — RLE round-trips must be bit-exact).
func sameExact(a, b datum.D) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case datum.KindNull:
		return true
	case datum.KindBool:
		return a.Bool() == b.Bool()
	case datum.KindInt:
		return a.Int() == b.Int()
	case datum.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case datum.KindString:
		return a.Str() == b.Str()
	}
	return false
}

// strAt reads the string value of row i from a plain or dictionary-encoded
// string vector. Row i must be non-NULL.
func strAt(v *datum.Vec, i int) string {
	if v.Dict != nil {
		return v.Dict.Vals[v.Ints[i]]
	}
	return v.Strs[i]
}

// rleRuns counts the constant runs of v, giving up (ok=false) as soon as the
// count proves run-length encoding unprofitable: fewer than rleMinRows rows,
// or more than one run per rleMaxRunRatio rows.
func rleRuns(v *datum.Vec) (int, bool) {
	n := v.Len()
	if n < rleMinRows || v.Kind() == datum.KindNull {
		return 0, false
	}
	maxRuns := n / rleMaxRunRatio
	runs := 1
	prev := v.D(0)
	for i := 1; i < n; i++ {
		d := v.D(i)
		if !sameExact(d, prev) {
			runs++
			if runs > maxRuns {
				return 0, false
			}
			prev = d
		}
	}
	return runs, true
}

// buildDict collects the exact distinct non-NULL strings of v into a sorted
// dictionary plus per-row codes (NULL rows code 0). ok=false when the column
// exceeds dictMaxSize distinct values or has no non-NULL value at all (the
// plain representation already encodes an all-NULL column as just a bitmap).
func buildDict(v *datum.Vec) (*datum.StrDict, []int64, bool) {
	n := v.Len()
	seen := make(map[string]struct{}, dictMaxSize+1)
	for i := 0; i < n; i++ {
		if v.Null(i) {
			continue
		}
		s := strAt(v, i)
		if _, ok := seen[s]; !ok {
			if len(seen) >= dictMaxSize {
				return nil, nil, false
			}
			seen[s] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil, nil, false
	}
	vals := make([]string, 0, len(seen))
	for s := range seen {
		vals = append(vals, s)
	}
	sort.Strings(vals)
	dict := &datum.StrDict{Vals: vals}
	codes := make([]int64, n)
	for i := 0; i < n; i++ {
		if v.Null(i) {
			continue
		}
		code, _ := dict.Code(strAt(v, i))
		codes[i] = code
	}
	return dict, codes, true
}

// writeNulls appends the uvarint NULL count and, when non-zero, the packed
// bitmap words — the header shared by the typed, dict and RLE layouts
// (RLE stores NULLs inline in its runs instead and passes an empty bitmap
// through the count only).
func writeNulls(buf *bytes.Buffer, v *datum.Vec) {
	var tmp [binary.MaxVarintLen64]byte
	n := v.Len()
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(v.NumNulls()))])
	if v.NumNulls() > 0 {
		words := (n + 63) / 64
		nulls := v.Nulls()
		for w := 0; w < words; w++ {
			var bits uint64
			if w < len(nulls) {
				bits = nulls[w]
			}
			binary.LittleEndian.PutUint64(tmp[:8], bits)
			buf.Write(tmp[:8])
		}
	}
}

// encodeColumn appends v's column block to buf in the representation picked
// at seal time, recording the choice in cm.repr. Boxed columns always encode
// per-datum. With compression enabled, run-length wins when the column is
// long constant runs (any kind — the shape SortBy produces), then a sorted
// dictionary for low-NDV string columns; cm's distinct sketch (already
// computed by the caller) pre-filters obviously high-cardinality columns so
// only plausible ones pay the exact distinct count. Plain typed layout is
// the universal fallback.
func encodeColumn(buf *bytes.Buffer, v *datum.Vec, cm *colMeta, compress bool) {
	var tmp [binary.MaxVarintLen64]byte
	n := v.Len()
	if v.Boxed() {
		cm.repr = reprBoxed
		buf.WriteByte(reprBoxed)
		buf.WriteByte(0)
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(n))])
		for i := 0; i < n; i++ {
			appendD(buf, v.D(i))
		}
		return
	}
	if compress {
		if runs, ok := rleRuns(v); ok {
			cm.repr = reprRLE
			encodeRLE(buf, v, runs)
			return
		}
		if v.Kind() == datum.KindString && sketchDistinct(cm.sketch, float64(n)) <= 2*dictMaxSize {
			if dict, codes, ok := buildDict(v); ok {
				cm.repr = reprDict
				encodeDict(buf, v, dict, codes)
				return
			}
		}
	}
	cm.repr = reprTyped
	buf.WriteByte(reprTyped)
	buf.WriteByte(byte(v.Kind()))
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(n))])
	writeNulls(buf, v)
	switch v.Kind() {
	case datum.KindInt, datum.KindBool:
		for _, x := range v.Ints {
			buf.Write(tmp[:binary.PutVarint(tmp[:], x)])
		}
	case datum.KindFloat:
		for _, f := range v.Floats {
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(f))
			buf.Write(tmp[:8])
		}
	case datum.KindString:
		for i := 0; i < n; i++ {
			var s string
			if v.Dict == nil {
				s = v.Strs[i]
			} else if !v.Null(i) {
				s = strAt(v, i) // NULL slots re-encode as ""
			}
			buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
			buf.WriteString(s)
		}
	case datum.KindNull:
		// all-NULL column: the bitmap already says everything
	}
}

// AppendColumnBlock appends v's column block to buf in the uncompressed
// layout: typed payload plus NULL bitmap, or per-datum for a boxed vector. A
// dictionary-encoded vector is written as its strings.
func AppendColumnBlock(buf *bytes.Buffer, v *datum.Vec) { encodeColumn(buf, v, &colMeta{}, false) }

// DecodeColumnBlock decodes a column block of rows rows into a vector that
// owns its payload.
func DecodeColumnBlock(block []byte, rows int) (*datum.Vec, error) {
	return decodeBlock(block, rows, nil)
}

// encodeDict writes a dictionary block: NULL header, the sorted dictionary
// (uvarint count, then uvarint-length strings), then one uvarint code per
// row. NULL rows carry code 0 so decode never reads an out-of-range slot.
func encodeDict(buf *bytes.Buffer, v *datum.Vec, dict *datum.StrDict, codes []int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.WriteByte(reprDict)
	buf.WriteByte(byte(datum.KindString))
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(codes)))])
	writeNulls(buf, v)
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(dict.Vals)))])
	for _, s := range dict.Vals {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))])
		buf.WriteString(s)
	}
	for _, c := range codes {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c))])
	}
}

// encodeRLE writes a run-length block: row and NULL counts, the run count,
// then (uvarint run length, spill-convention datum) per run — NULL runs
// encode as the NULL kind byte with no payload.
func encodeRLE(buf *bytes.Buffer, v *datum.Vec, runs int) {
	var tmp [binary.MaxVarintLen64]byte
	n := v.Len()
	buf.WriteByte(reprRLE)
	buf.WriteByte(byte(v.Kind()))
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(n))])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(v.NumNulls()))])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(runs))])
	i := 0
	for i < n {
		d := v.D(i)
		j := i + 1
		for j < n && sameExact(v.D(j), d) {
			j++
		}
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(j-i))])
		appendD(buf, d)
		i = j
	}
}

// dictEntries reads dictLen uvarint-length dictionary entries from r,
// requiring them to ascend strictly, and passes each one's bytes to each
// (when non-nil).
func dictEntries(r *byteReader, dictLen int, each func([]byte)) error {
	var prev []byte
	for i := 0; i < dictLen; i++ {
		ln, err := r.uvarint()
		if err != nil {
			return err
		}
		b, err := r.take(int(ln))
		if err != nil {
			return err
		}
		if i > 0 && bytes.Compare(b, prev) <= 0 {
			return fmt.Errorf("storage: dictionary entry %d out of order", i)
		}
		if each != nil {
			each(b)
		}
		prev = b
	}
	return nil
}

// dictSet interns decoded string dictionaries by their encoded bytes, so the
// segments of a table that sealed the same value set share one *StrDict
// pointer — which is what lets a multi-segment scan keep appending codes
// instead of materializing at every segment boundary (Vec.AppendRange's
// same-dict fast path is pointer identity). Codes need no translation: equal
// encodings list equal values in the same order. Safe for concurrent use,
// because column reads hold only the table's read lock.
type dictSet struct {
	mu sync.Mutex
	m  map[string]*datum.StrDict
}

// intern returns the dictionary interned for enc, the encoded dictionary
// (entry count and entries) of a block, calling build(enc) the first time.
// A nil set interns nothing.
func (ds *dictSet) intern(enc []byte, build func(enc []byte) *datum.StrDict) *datum.StrDict {
	if ds == nil {
		return build(enc)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if d, ok := ds.m[string(enc)]; ok {
		return d
	}
	if ds.m == nil {
		ds.m = make(map[string]*datum.StrDict)
	}
	d := build(enc)
	ds.m[string(enc)] = d
	return d
}

// reset forgets every interned dictionary.
func (ds *dictSet) reset() {
	ds.mu.Lock()
	ds.m = nil
	ds.mu.Unlock()
}

// --- column blocks: parsed once, decoded by row range ---

// block is a column block with its header parsed and its values still
// encoded in body — what the block cache holds when the decoded column does
// not fit, and the one decode path: a whole column is the rows [0, rows).
// Concurrent readers share a block, which reads do not change.
type block struct {
	kind     datum.Kind
	rows     int
	nulls    datum.Bitmap // a run-length block's NULL runs too
	numNulls int
	dict     *datum.StrDict // interned
	body     []byte         // varints, float bits, strings or codes
	// raw is the buffer a block read from its file was read into, which
	// body points into; the block cache reuses it after eviction.
	raw []byte
	// runs holds the value of each run of a run-length block, and ends the
	// row each run ends before.
	runs *datum.Vec
	ends []int32
	// vec is the decoded column of a block without a body: a boxed or
	// all-NULL block, decoded at parse, or one held decoded — pinned, or a
	// decoded cache entry.
	vec *datum.Vec
}

// parseBlock parses a column block of rows rows, interning its dictionary in
// dicts (nil: a private one). Only runs and boxed datums, which are few or
// rare, are decoded here: other values are checked as reads decode them, so
// a block that passes its CRC but was written wrong fails the read that
// reaches the damage.
func parseBlock(raw []byte, rows int, dicts *dictSet) (*block, error) {
	r := &byteReader{b: raw}
	repr, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	kb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if n, err := r.uvarint(); err != nil || n != uint64(rows) {
		return nil, cmp.Or(err, fmt.Errorf("storage: column block has %d rows, segment has %d", n, rows))
	}
	b := &block{kind: datum.Kind(kb), rows: rows}
	switch {
	case repr == reprBoxed:
		ds := make([]datum.D, rows)
		for i := 0; i < rows && err == nil; i++ {
			ds[i], err = decodeD(r)
		}
		b.vec = datum.NewBoxedVec(ds)
	case b.kind > datum.KindString || repr > reprRLE:
		return nil, fmt.Errorf("storage: unknown column kind %d or representation %d", kb, repr)
	case repr == reprRLE:
		err = b.parseRuns(r)
	default:
		if b.nulls, b.numNulls, err = decodeNulls(r, rows); err == nil && repr == reprDict {
			err = b.parseDict(r, dicts)
		} else if err == nil && b.kind == datum.KindFloat && len(raw)-r.off < 8*rows {
			err = errTruncated
		}
	}
	if b.kind == datum.KindNull && b.vec == nil {
		b.vec = datum.NewVec(datum.KindNull, rows)
		for i := 0; i < rows; i++ {
			b.vec.AppendNull()
		}
	}
	if b.vec == nil && b.runs == nil {
		b.body = raw[r.off:]
	}
	return b, err
}

// decodeNulls reads the uvarint NULL count and bitmap written by writeNulls.
func decodeNulls(r *byteReader, n int) (datum.Bitmap, int, error) {
	nn, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	numNulls := int(nn)
	if numNulls > n {
		return nil, 0, fmt.Errorf("storage: %d NULLs in a %d-row block", numNulls, n)
	}
	var nulls datum.Bitmap
	if numNulls > 0 {
		words := (n + 63) / 64
		nulls = make(datum.Bitmap, words)
		for w := 0; w < words; w++ {
			b, err := r.take(8)
			if err != nil {
				return nil, 0, err
			}
			nulls[w] = binary.LittleEndian.Uint64(b)
		}
	}
	return nulls, numNulls, nil
}

// parseDict reads the dictionary of a dictionary block, whose codes stay
// encoded all the way into the executor: only kernels that need the strings
// consult the dictionary. The entries must ascend strictly; their encoded
// bytes are checked and interned in dicts before any string is built, so a
// dictionary seen before costs no allocation.
func (b *block) parseDict(r *byteReader, dicts *dictSet) error {
	if b.kind != datum.KindString {
		return fmt.Errorf("storage: dictionary block with non-string kind byte %d", b.kind)
	}
	start := r.off
	dl, err := r.uvarint()
	if err != nil {
		return err
	}
	dictLen := int(dl)
	if dictLen <= 0 || dictLen > b.rows {
		return fmt.Errorf("storage: dictionary with %d entries in a %d-row block", dictLen, b.rows)
	}
	if err := dictEntries(r, dictLen, nil); err != nil {
		return err
	}
	b.dict = dicts.intern(r.b[start:r.off], func(enc []byte) *datum.StrDict {
		vals := make([]string, 0, dictLen)
		er := &byteReader{b: enc}
		// The bytes were checked above: neither read can fail.
		_, _ = er.uvarint()
		_ = dictEntries(er, dictLen, func(b []byte) { vals = append(vals, string(b)) })
		return &datum.StrDict{Vals: vals}
	})
	return nil
}

// parseRuns reads the runs of a run-length block, marking its NULL runs in
// the bitmap.
func (b *block) parseRuns(r *byteReader) error {
	nn, err := r.uvarint()
	if err != nil {
		return err
	}
	ru, err := r.uvarint()
	if err != nil || ru == 0 || ru > uint64(b.rows) {
		return cmp.Or(err, fmt.Errorf("storage: %d runs in a %d-row block", ru, b.rows))
	}
	b.runs, b.ends = datum.NewVec(b.kind, int(ru)), make([]int32, ru)
	total := 0
	for ri := range b.ends {
		ln, err := r.uvarint()
		if err != nil || ln == 0 || ln > uint64(b.rows-total) {
			return cmp.Or(err, fmt.Errorf("storage: run %d of length %d overflows %d-row block", ri, ln, b.rows))
		}
		d, err := decodeD(r)
		if err != nil || !d.IsNull() && d.Kind() != b.kind {
			return cmp.Or(err, fmt.Errorf("storage: run %d value kind %d, want %d", ri, d.Kind(), b.kind))
		}
		b.runs.AppendD(d)
		for end := total + int(ln); total < end; total++ {
			if d.IsNull() {
				b.nulls.Set(total)
				b.numNulls++
			}
		}
		b.ends[ri] = int32(total)
	}
	if total != b.rows || b.numNulls != int(nn) {
		return fmt.Errorf("storage: runs cover %d of %d rows, %d NULLs of %d", total, b.rows, b.numNulls, nn)
	}
	return nil
}

// decodeBlock decodes a whole column block of rows rows into a vector that
// owns its payload, interning a dictionary in dicts.
func decodeBlock(raw []byte, rows int, dicts *dictSet) (*datum.Vec, error) {
	b, err := parseBlock(raw, rows, dicts)
	if err != nil {
		return nil, err
	}
	return b.decode()
}

// decode returns the whole column decoded.
func (b *block) decode() (*datum.Vec, error) {
	if b.vec != nil {
		return b.vec, nil
	}
	v := datum.NewVec(b.kind, b.rows)
	return v, b.read(v, rowSet{hi: b.rows})
}

// rowSet is the rows a read decodes: [lo, hi), or ids[k]-lo when ids is
// non-nil.
type rowSet struct {
	lo, hi int
	ids    []int
}

func (rs rowSet) n() int {
	if rs.ids != nil {
		return len(rs.ids)
	}
	return rs.hi - rs.lo
}

func (rs rowSet) row(k int) int {
	if rs.ids != nil {
		return rs.ids[k] - rs.lo
	}
	return rs.lo + k
}

// read appends rows rs of the block to v exactly as appending them from the
// decoded column would — by Vec.AppendRange, or datum.AppendGather for ids.
// Only those rows are decoded: straight into v's payload when v holds (or
// can take) the block's representation, else into a vector of their own
// that v appends from.
func (b *block) read(v *datum.Vec, rs rowSet) error {
	switch {
	case b.vec != nil && rs.ids == nil:
		v.AppendRange(b.vec, rs.lo, rs.hi)
		return nil
	case b.vec != nil:
		datum.AppendGather(v, b.vec, rs.ids, rs.lo)
		return nil
	}
	if ok, err := b.fill(v, rs); ok || err != nil {
		return err
	}
	n := rs.n()
	tmp := datum.NewVec(b.kind, n)
	if _, err := b.fill(tmp, rs); err != nil {
		return err
	}
	if rs.ids == nil {
		v.AppendRange(tmp, 0, n)
	}
	for k := 0; k < n && rs.ids != nil; k++ {
		v.AppendVec(tmp, k) // as AppendGather does for such a pair
	}
	return nil
}

// fill decodes rows rs straight into v's payload through Vec.AppendDecoded,
// or reports false when v's representation cannot take the block's as it
// is.
func (b *block) fill(v *datum.Vec, rs rowSet) (bool, error) {
	n, nulls, lo := rs.n(), b.nulls, rs.lo
	if rs.ids != nil {
		nulls, lo = nil, 0
		for k := 0; k < n && b.numNulls > 0; k++ {
			if b.nulls.Get(rs.row(k)) {
				nulls.Set(k)
			}
		}
	}
	return v.AppendDecoded(b.kind, b.dict, nulls, lo, lo+n, func(v *datum.Vec) (err error) {
		c := cursor{b: b}
		switch {
		case b.runs != nil && b.kind == datum.KindFloat:
			v.Floats = runValues(v.Floats, b.runs.Floats, b.ends, rs)
		case b.runs != nil && b.kind == datum.KindString:
			v.Strs = runValues(v.Strs, b.runs.Strs, b.ends, rs)
		case b.runs != nil:
			v.Ints = runValues(v.Ints, b.runs.Ints, b.ends, rs)
		case b.kind == datum.KindFloat:
			dst := slices.Grow(v.Floats, n)
			for k := 0; k < n; k++ {
				dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b.body[8*rs.row(k):])))
			}
			v.Floats = dst
		case b.kind == datum.KindString && b.dict == nil:
			for k := 0; k < n && err == nil; k++ {
				var s []byte
				if err = c.to(rs.row(k)); err == nil {
					s, c.off, err = str(b.body, c.off)
					v.Strs = append(v.Strs, string(s))
					c.row++
				}
			}
		default:
			v.Ints, err = c.ints(v.Ints, rs)
		}
		return err
	})
}

// runValues appends the values of rows rs of a run-length column to dst:
// vals[r] for the rows of run r, which ends before row ends[r].
func runValues[T any](dst, vals []T, ends []int32, rs rowSet) []T {
	dst = slices.Grow(dst, rs.n())
	for k, n := 0, rs.n(); k < n; {
		r, _ := slices.BinarySearch(ends, int32(rs.row(k)+1))
		start := int32(0)
		if r > 0 {
			start = ends[r-1]
		}
		for ; k < n && int32(rs.row(k)) >= start && int32(rs.row(k)) < ends[r]; k++ {
			dst = append(dst, vals[r])
		}
	}
	return dst
}

// cursor is a position in a block body: the offset off of row row.
type cursor struct {
	b        *block
	row, off int
}

// to moves the cursor forward to row, from row 0 when row is behind it.
// Varints and strings have no random access, so the rows between are
// skipped: strings by their lengths, varints eight bytes at a time by
// counting the bytes that end one.
func (c *cursor) to(row int) (err error) {
	if row < c.row {
		c.row, c.off = 0, 0
	}
	body, off, n := c.b.body, c.off, row-c.row
	if c.b.kind == datum.KindString && c.b.dict == nil {
		for ; n > 0 && err == nil; n-- {
			if off < len(body) && body[off] < 0x80 {
				off += 1 + int(body[off]) // a length below 128
			} else {
				_, off, err = str(body, off)
			}
		}
	} else {
		// A word holds at most eight varint ends, so while eight or more
		// rows are left, every word is passed whole; a varint the last word
		// cut is the first row the byte loop passes.
		for ; n >= 8 && off+8 <= len(body); off += 8 {
			n -= bits.OnesCount64(^binary.LittleEndian.Uint64(body[off:]) & 0x8080808080808080)
		}
		for ; n > 0 && off < len(body); n-- {
			for off < len(body) && body[off] >= 0x80 {
				off++
			}
			off++
		}
	}
	if n > 0 || off > len(body) {
		err = cmp.Or(err, errTruncated)
	}
	c.row, c.off = row, off
	return err
}

// ints appends rows rs of an INT, BOOL or dictionary block to dst: its
// uvarints, zig-zag decoded or checked against the dictionary.
func (c *cursor) ints(dst []int64, rs rowSet) (_ []int64, err error) {
	start, n := len(dst), rs.n()
	dst = slices.Grow(dst, n)
	for k := 0; k < n && err == nil; {
		if err = c.to(rs.row(k)); err != nil {
			break
		}
		step := 1
		if rs.ids == nil {
			step = n
		}
		dst, c.off, err = varints(dst, c.b.body, c.off, step)
		c.row, k = c.row+step, k+step
	}
	for i, x := range dst[start:] {
		switch dict := c.b.dict; {
		case dict == nil:
			dst[start+i] = unzigzag(uint64(x))
		case uint64(x) >= uint64(len(dict.Vals)):
			err = cmp.Or(err, fmt.Errorf("storage: code %d exceeds dictionary of %d", uint64(x), len(dict.Vals)))
		}
	}
	return dst, err
}

// varints appends the n uvarints at body[off:] to dst and returns the offset
// past them. One- and two-byte varints decode inline.
func varints(dst []int64, body []byte, off, n int) ([]int64, int, error) {
	for ; n > 0; n-- {
		if off+1 < len(body) {
			if b0 := body[off]; b0 < 0x80 {
				dst, off = append(dst, int64(b0)), off+1
				continue
			} else if b1 := body[off+1]; b1 < 0x80 {
				dst, off = append(dst, int64(b0&0x7f)|int64(b1)<<7), off+2
				continue
			}
		}
		x, k := binary.Uvarint(body[off:])
		if k <= 0 {
			_, _, err := uvarint(body, off)
			return dst, off, err
		}
		dst, off = append(dst, int64(x)), off+k
	}
	return dst, off, nil
}

// str reads the uvarint-length string at body[off:], returning it and the
// offset past it.
func str(body []byte, off int) ([]byte, int, error) {
	n, next, err := uvarint(body, off)
	if err == nil && n > uint64(len(body)-next) {
		err = errTruncated
	}
	if err != nil {
		return nil, off, err
	}
	return body[next : next+int(n)], next + int(n), nil
}

// decodedBytes is what vecCacheBytes charges for the block decoded, so the
// cache can pick a form before decoding: exact for fixed-width values and
// dictionaries, a bound from above for plain strings (length bytes count as
// payload) and an estimate for runs of strings.
func (b *block) decodedBytes() int64 {
	n, x := int64(b.rows), int64(0)
	switch {
	case b.runs != nil:
		x = vecCacheBytes(b.runs) * n / int64(len(b.ends))
	case b.dict != nil:
		x = 8*n + b.dict.Bytes()
	case b.kind == datum.KindString:
		x = 16*n + int64(len(b.body))
	default:
		x = 8 * n
	}
	if b.numNulls > 0 {
		x += (n + 63) / 64 * 8
	}
	return x
}

// cacheBytes is the cache charge of the block held encoded: the capacity of
// the buffer its body points into, its NULL bitmap, dictionary and runs.
func (b *block) cacheBytes() int64 {
	x := int64(cap(b.raw) + 8*len(b.nulls) + 4*len(b.ends))
	if b.dict != nil {
		x += b.dict.Bytes()
	}
	if b.runs != nil {
		x += vecCacheBytes(b.runs)
	}
	return x
}

// --- zone maps and distinct sketches ---

// zoneOf computes the footer statistics of one column vector: NULL count,
// min/max zone bounds and the distinct sketch. hasZone is withheld for
// columns with no non-NULL values.
func zoneOf(v *datum.Vec) (nullCount int, hasZone bool, minD, maxD datum.D, sketch [sketchBytes]byte) {
	for i := 0; i < v.Len(); i++ {
		d := v.D(i)
		if d.IsNull() {
			nullCount++
			continue
		}
		if !hasZone {
			minD, maxD, hasZone = d, d, true
		} else {
			if datum.Compare(d, minD) < 0 {
				minD = d
			}
			if datum.Compare(d, maxD) > 0 {
				maxD = d
			}
		}
		h := sketchHash(d)
		sketch[(h%256)>>3] |= 1 << (h % 8)
	}
	return
}

// sketchHash is a deterministic FNV-1a over a family tag plus a canonical
// payload. It must be stable across processes and builds (sketches are
// persisted), so it does not follow datum's key hash. Numerics hash their
// datum.HashBits so 1 and 1.0, -0 and +0, or two NaNs count as one distinct
// value, as datum.Compare calls them equal.
func sketchHash(d datum.D) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	step64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			step(byte(v >> (8 * i)))
		}
	}
	switch d.Kind() {
	case datum.KindBool:
		step(1)
		if d.Bool() {
			step(1)
		} else {
			step(0)
		}
	case datum.KindInt:
		step(2)
		step64(math.Float64bits(float64(d.Int())))
	case datum.KindFloat:
		step(2)
		step64(datum.HashBits(d.Float()))
	case datum.KindString:
		step(3)
		s := d.Str()
		for i := 0; i < len(s); i++ {
			step(s[i])
		}
	}
	return h
}

// sketchDistinct is the linear-counting estimate of a sketch: with m bits and
// z still zero, distinct ≈ -m·ln(z/m). A saturated sketch (z = 0) caps the
// estimate at cap — the sketch only resolves cardinalities up to a few
// hundred, which is exactly the coarse-histogram duty it has here.
func sketchDistinct(sketch [sketchBytes]byte, capRows float64) float64 {
	zero := 0
	for _, b := range sketch {
		for i := 0; i < 8; i++ {
			if b&(1<<i) == 0 {
				zero++
			}
		}
	}
	const m = float64(sketchBytes * 8)
	if zero == 0 {
		return capRows
	}
	d := -m * math.Log(float64(zero)/m)
	if d < 1 {
		d = 1
	}
	if capRows > 0 && d > capRows {
		d = capRows
	}
	return d
}

// unionSketch ORs b into a (sketches of the same column across segments union
// bitwise).
func unionSketch(a *[sketchBytes]byte, b [sketchBytes]byte) {
	for i := range a {
		a[i] |= b[i]
	}
}

// --- segment file write/read ---

// encodeSegment lays out the column blocks and footer of one segment.
// Fault checks run on the store's injector: "segment.create" once, then
// "segment.write" per column block, mirroring the spill path's cadence.
// Zone maps and distinct sketches are computed before each column encodes,
// because the encoder uses the sketch to pick a representation; compress=
// false (Options.DisableCompression) forces the plain layout everywhere.
func encodeSegment(vecs []*datum.Vec, faults *faultfs.Injector, compress bool) ([]byte, []colMeta, error) {
	if faults != nil {
		if err := faults.Check("segment.create"); err != nil {
			return nil, nil, err
		}
	}
	var buf bytes.Buffer
	metas := make([]colMeta, len(vecs))
	for ci, v := range vecs {
		if faults != nil {
			if err := faults.Check("segment.write"); err != nil {
				return nil, nil, err
			}
		}
		cm := colMeta{kind: v.Kind()}
		cm.nullCount, cm.hasZone, cm.min, cm.max, cm.sketch = zoneOf(v)
		off := int64(buf.Len())
		encodeColumn(&buf, v, &cm, compress)
		cm.off = off
		cm.blockLen = int64(buf.Len()) - off
		cm.crc = crc32.Checksum(buf.Bytes()[off:], crcTable)
		metas[ci] = cm
	}
	rows := 0
	if len(vecs) > 0 {
		rows = vecs[0].Len()
	}
	appendFooter(&buf, rows, metas, segMagic)
	return buf.Bytes(), metas, nil
}

// appendFooter writes a segment's footer after its column blocks: rows,
// ncols, then one entry per column. The trailer after the footer is
// fixed-width — CRC32C(footer), footer length, magic — so the reader can
// locate and verify the footer from the file tail alone.
func appendFooter(buf *bytes.Buffer, rows int, metas []colMeta, magic string) {
	var tmp [binary.MaxVarintLen64]byte
	footerOff := buf.Len()
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(rows))])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(metas)))])
	for _, cm := range metas {
		buf.WriteByte(cm.repr)
		buf.WriteByte(byte(cm.kind))
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(cm.off))])
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(cm.blockLen))])
		var crcb [4]byte
		binary.LittleEndian.PutUint32(crcb[:], cm.crc)
		buf.Write(crcb[:])
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(cm.nullCount))])
		if cm.hasZone {
			buf.WriteByte(1)
			appendD(buf, cm.min)
			appendD(buf, cm.max)
		} else {
			buf.WriteByte(0)
		}
		buf.Write(cm.sketch[:])
	}
	footerLen := buf.Len() - footerOff
	footerCRC := crc32.Checksum(buf.Bytes()[footerOff:], crcTable)
	binary.LittleEndian.PutUint32(tmp[:4], footerCRC)
	buf.Write(tmp[:4])
	binary.LittleEndian.PutUint32(tmp[:4], uint32(footerLen))
	buf.Write(tmp[:4])
	buf.WriteString(magic)
}

func decodeFooter(raw []byte, path string) (segMeta, error) {
	var sm segMeta
	bad := func(region string, off int64, format string, a ...any) (segMeta, error) {
		return sm, &CorruptError{Path: path, Region: region, Column: -1, Offset: off, Detail: fmt.Sprintf(format, a...)}
	}
	tail := len(segMagic) + 8 // footerCRC u32, footerLen u32, magic
	if len(raw) < tail {
		return bad(RegionFile, 0, "file is %d bytes, shorter than the %d-byte trailer", len(raw), tail)
	}
	magic := string(raw[len(raw)-len(segMagic):])
	if magic != segMagic && magic != segMagicV3 && magic != segMagicV2 {
		return bad(RegionMagic, int64(len(raw)-len(segMagic)), "magic %q, want %q", magic, segMagic)
	}
	footerCRC := binary.LittleEndian.Uint32(raw[len(raw)-tail : len(raw)-tail+4])
	footerLen := int(binary.LittleEndian.Uint32(raw[len(raw)-tail+4 : len(raw)-len(segMagic)]))
	footerOff := len(raw) - tail - footerLen
	if footerLen < 0 || footerOff < 0 {
		return bad(RegionFooter, 0, "footer length %d exceeds file size %d", footerLen, len(raw))
	}
	footer := raw[footerOff : footerOff+footerLen]
	if got := crc32.Checksum(footer, crcTable); got != footerCRC {
		return bad(RegionFooter, int64(footerOff), "footer checksum %08x, want %08x", got, footerCRC)
	}
	// Past the CRC, decode failures mean the footer was *written* wrong, not
	// damaged — still typed, so callers treat both uniformly.
	r := &byteReader{b: footer}
	fail := func(err error) (segMeta, error) {
		return bad(RegionFooter, int64(footerOff), "footer decode: %v", err)
	}
	// Reads after the first failure read nothing; the checks below report it.
	var err error
	uv := func() (x uint64) {
		if err == nil {
			x, err = r.uvarint()
		}
		return x
	}
	take := func(n int) (b []byte) {
		if err == nil {
			b, err = r.take(n)
		}
		return append(b, make([]byte, n-len(b))...)
	}
	datumAt := func() (d datum.D) {
		if err == nil {
			d, err = decodeD(r)
		}
		return d
	}
	rows, ncols := uv(), uv()
	if err != nil {
		return fail(err)
	}
	sm.rows, sm.bytes, sm.cols = int(rows), int64(len(raw)), make([]colMeta, ncols)
	for ci := range sm.cols {
		cm := &sm.cols[ci]
		head := take(2)
		cm.repr, cm.kind = head[0], datum.Kind(head[1])
		cm.off, cm.blockLen = int64(uv()), int64(uv())
		cm.crc = binary.LittleEndian.Uint32(take(4))
		cm.nullCount = int(uv())
		if err != nil {
			return fail(err)
		}
		if cm.off < 0 || cm.blockLen < 0 || cm.off+cm.blockLen > int64(footerOff) {
			return bad(RegionFooter, int64(footerOff), "column %d block [%d,+%d) outside data area of %d bytes", ci, cm.off, cm.blockLen, footerOff)
		}
		if take(1)[0] != 0 {
			cm.hasZone, cm.min, cm.max = true, datumAt(), datumAt()
			if magic != segMagic && (roundedBound(cm.min) || roundedBound(cm.max)) {
				cm.hasZone, cm.min, cm.max = false, datum.Null, datum.Null
			}
		}
		copy(cm.sketch[:], take(sketchBytes))
		if err != nil {
			return fail(err)
		}
	}
	return sm, nil
}

// roundedBound reports whether a zone bound written before version 4 may be
// off under the exact order: a number of magnitude 2^53 or more, where
// rounding an INT to a float could tie unequal values.
func roundedBound(d datum.D) bool {
	switch d.Kind() {
	case datum.KindInt:
		return d.Int() >= 1<<53 || d.Int() <= -1<<53
	case datum.KindFloat:
		return math.Abs(d.Float()) >= 1<<53
	}
	return false
}

// --- zone-map predicates and segment dispositions ---

// ZoneOp mirrors the executor's comparison operators for zone-map reasoning
// (storage cannot import the logical package).
type ZoneOp uint8

// Comparison operators over datum.Compare's total order.
const (
	ZoneEq ZoneOp = iota
	ZoneNe
	ZoneLt
	ZoneLe
	ZoneGt
	ZoneGe
)

// ZonePredForm selects the shape of a ZonePred.
type ZonePredForm uint8

// Predicate forms the zone maps can reason about.
const (
	ZoneCmp       ZonePredForm = iota // column <op> constant
	ZoneIn                            // column IN (constants)
	ZoneIsNull                        // column IS NULL
	ZoneIsNotNull                     // column IS NOT NULL
	ZoneNever                         // predicate can never be TRUE (e.g. col = NULL)
)

// ZonePred is one conjunct of a scan predicate, compiled down to a base-table
// column ordinal so the storage layer can confront it with segment footers.
type ZonePred struct {
	Ord  int
	Form ZonePredForm
	Op   ZoneOp
	C    datum.D
	List []datum.D
}

// ZoneDisp is a segment's disposition under a predicate conjunction.
type ZoneDisp uint8

// Dispositions: ZoneNone segments cannot contain a matching row and are
// eliminated without I/O; ZoneAll segments match on every row (and contain no
// NULLs in the tested columns), so a scan may skip filter evaluation when the
// whole predicate was compiled; ZoneSome is everything in between.
const (
	ZoneNone ZoneDisp = iota
	ZoneSome
	ZoneAll
)

// dispPred evaluates one predicate against one column's footer entry.
func dispPred(cm *colMeta, rows int, p ZonePred) ZoneDisp {
	nonNull := rows - cm.nullCount
	switch p.Form {
	case ZoneNever:
		return ZoneNone
	case ZoneIsNull:
		switch {
		case cm.nullCount == 0:
			return ZoneNone
		case cm.nullCount == rows:
			return ZoneAll
		}
		return ZoneSome
	case ZoneIsNotNull:
		switch {
		case cm.nullCount == rows:
			return ZoneNone
		case cm.nullCount == 0:
			return ZoneAll
		}
		return ZoneSome
	case ZoneCmp:
		if nonNull == 0 {
			return ZoneNone // comparisons with NULL are never TRUE
		}
		if !cm.hasZone {
			return ZoneSome
		}
		cmpMin := datum.Compare(cm.min, p.C)
		cmpMax := datum.Compare(cm.max, p.C)
		noNulls := cm.nullCount == 0
		switch p.Op {
		case ZoneEq:
			if cmpMin > 0 || cmpMax < 0 {
				return ZoneNone
			}
			if cmpMin == 0 && cmpMax == 0 && noNulls {
				return ZoneAll
			}
		case ZoneNe:
			if cmpMin == 0 && cmpMax == 0 {
				return ZoneNone
			}
			if (cmpMin > 0 || cmpMax < 0) && noNulls {
				return ZoneAll
			}
		case ZoneLt:
			if cmpMin >= 0 {
				return ZoneNone
			}
			if cmpMax < 0 && noNulls {
				return ZoneAll
			}
		case ZoneLe:
			if cmpMin > 0 {
				return ZoneNone
			}
			if cmpMax <= 0 && noNulls {
				return ZoneAll
			}
		case ZoneGt:
			if cmpMax <= 0 {
				return ZoneNone
			}
			if cmpMin > 0 && noNulls {
				return ZoneAll
			}
		case ZoneGe:
			if cmpMax < 0 {
				return ZoneNone
			}
			if cmpMin >= 0 && noNulls {
				return ZoneAll
			}
		}
		return ZoneSome
	case ZoneIn:
		if nonNull == 0 {
			return ZoneNone
		}
		if !cm.hasZone {
			return ZoneSome
		}
		anyInRange := false
		pointMatch := false
		for _, e := range p.List {
			if datum.Compare(e, cm.min) >= 0 && datum.Compare(e, cm.max) <= 0 {
				anyInRange = true
				if datum.Compare(cm.min, cm.max) == 0 {
					pointMatch = true
				}
			}
		}
		if !anyInRange {
			return ZoneNone
		}
		if pointMatch && cm.nullCount == 0 {
			return ZoneAll // single-valued segment whose value is in the list
		}
		return ZoneSome
	}
	return ZoneSome
}

// dispSegment combines the conjunction: any conjunct that cannot match kills
// the segment; the segment is a full match only when every conjunct matches
// every row.
func dispSegment(sm *segMeta, preds []ZonePred) ZoneDisp {
	disp := ZoneAll
	for _, p := range preds {
		if p.Ord < 0 || (p.Form != ZoneNever && p.Ord >= len(sm.cols)) {
			disp = ZoneSome
			continue
		}
		var cm *colMeta
		if p.Form != ZoneNever {
			cm = &sm.cols[p.Ord]
		} else {
			cm = &colMeta{}
		}
		switch dispPred(cm, sm.rows, p) {
		case ZoneNone:
			return ZoneNone
		case ZoneSome:
			disp = ZoneSome
		}
	}
	return disp
}

// --- block cache ---

// blockKey identifies one column block: table identity, rewrite generation
// (SortBy bumps it), segment and column ordinal.
type blockKey struct {
	tab *Table
	gen int
	seg int
	ord int
}

// cacheEntry holds one column block in one form, never both: verified and
// parsed with its values encoded in blk.raw, or decoded (blk.vec, no body).
// Entries are immutable once cached. pins counts the cache while it holds the
// entry and each reader from the get or put that returned it to its release,
// as a buffer manager fixes a page; the last unpin frees blk.raw for reuse.
type cacheEntry struct {
	key   blockKey
	blk   *block
	bytes int64
	pins  int
}

// freeBuffers bounds the free list of block buffers, which the cache does not
// charge. A free buffer serves a miss whose block fills at least 1/maxSlack
// of it, so an entry charged by capacity is charged at most maxSlack times
// its block's length.
const (
	freeBuffers = 8
	maxSlack    = 4
)

// blockCache is the store-wide LRU of the column blocks read from segment
// files, bounded by a byte budget. A miss chooses the form of its entry once:
// decoded when the decoded column fits in the room the budget has left,
// encoded otherwise, evicting the least recently used entries. Decoded
// vectors are shared read-only, as encoded blocks are. Misses read into the
// buffers of evicted encoded entries, kept on a short free list.
type blockCache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	lru    *list.List // front = most recently used; values are *cacheEntry
	m      map[blockKey]*list.Element
	free   [][]byte // ascending capacity
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{budget: budget, lru: list.New(), m: make(map[blockKey]*list.Element)}
}

// get returns the cached entry of k pinned, or nil.
func (c *blockCache) get(k blockKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	e.pins++
	return e
}

// put caches e and returns it pinned. When a concurrent reader cached the
// block first, put frees e's buffer and returns theirs pinned.
func (c *blockCache) put(e *cacheEntry) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		c.recycleLocked(e.blk.raw)
		e = el.Value.(*cacheEntry)
		e.pins++
		return e
	}
	e.pins = 2
	c.m[e.key] = c.lru.PushFront(e)
	c.size += e.bytes
	for c.size > c.budget && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
	}
	return e
}

// release unpins an entry get or put returned; nil, a pinned segment's
// column, has none.
func (c *blockCache) release(e *cacheEntry) {
	if e != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.unpinLocked(e)
	}
}

func (c *blockCache) unpinLocked(e *cacheEntry) {
	if e.pins--; e.pins == 0 {
		c.recycleLocked(e.blk.raw)
	}
}

// removeLocked evicts an entry, dropping the cache's pin.
func (c *blockCache) removeLocked(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry)
	delete(c.m, e.key)
	c.size -= e.bytes
	c.unpinLocked(e)
}

// alloc returns a buffer of n bytes for a miss to read into: the smallest
// free one that holds n, if n fills at least 1/maxSlack of it, else a new one.
func (c *blockCache) alloc(n int64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, _ := slices.BinarySearchFunc(c.free, n, capCmp)
	if i == len(c.free) || int64(cap(c.free[i])) > maxSlack*n {
		return make([]byte, n)
	}
	b := c.free[i]
	c.free = slices.Delete(c.free, i, i+1)
	return b[:n]
}

func capCmp(b []byte, n int64) int { return cmp.Compare(int64(cap(b)), n) }

// recycleLocked puts a buffer nothing references on the free list, which is
// ordered by capacity and, when full, drops its smallest buffer: larger ones
// serve more misses.
func (c *blockCache) recycleLocked(buf []byte) {
	if buf == nil {
		return
	}
	i, _ := slices.BinarySearchFunc(c.free, int64(cap(buf)), capCmp)
	if c.free = slices.Insert(c.free, i, buf); len(c.free) > freeBuffers {
		c.free = slices.Delete(c.free, 0, 1)
	}
}

// fits reports whether bytes more fit in the budget without an eviction.
func (c *blockCache) fits(bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size+bytes <= c.budget
}

// dropTable evicts every cached block of one table (table drop/rewrite).
func (c *blockCache) dropTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.tab == t {
			c.removeLocked(el)
		}
		el = next
	}
}
