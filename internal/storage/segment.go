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
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
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
// goroutine; parallel workers each carry their own and fold BytesRead into
// their counters at pipeline barriers.
type ScanCtx struct {
	// Faults, when non-nil, is checked on the "segment.open" and
	// "segment.read" operation streams before the corresponding syscalls.
	Faults *faultfs.Injector
	// BytesRead accumulates bytes actually read from segment files. Column
	// blocks served from the decoded-column cache add nothing, which is what
	// makes cold-vs-warm benchmarks honest.
	BytesRead int64
	// BlocksDict / BlocksRLE / BlocksPlain count cold column-block reads by
	// representation (cache hits add nothing, same as BytesRead), so EXPLAIN
	// ANALYZE can report how much of a scan ran over encoded data.
	BlocksDict  int64
	BlocksRLE   int64
	BlocksPlain int64
}

func (sc *ScanCtx) check(op string) error {
	if sc == nil || sc.Faults == nil {
		return nil
	}
	return sc.Faults.Check(op)
}

func (sc *ScanCtx) addBytes(n int64) {
	if sc != nil {
		sc.BytesRead += n
	}
}

func (sc *ScanCtx) addBlock(repr byte) {
	if sc == nil {
		return
	}
	switch repr {
	case reprDict:
		sc.BlocksDict++
	case reprRLE:
		sc.BlocksRLE++
	default:
		sc.BlocksPlain++
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
	pinned []*datum.Vec
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
	rest := r.b[r.off:]
	x, n := binary.Uvarint(rest)
	switch {
	case n > 0:
		r.off += n
		return x, nil
	case n < 0 || len(rest) >= binary.MaxVarintLen64:
		return 0, errVarintOverflow
	}
	return 0, errTruncated
}

// varint decodes a zig-zag varint, as binary.ReadVarint does.
func (r *byteReader) varint() (int64, error) {
	ux, err := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
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
	return decodeColumn(block, rows, nil)
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

// decodeColumn rebuilds a column block into a Vec. rows is the segment's row
// count, used to validate the block; a dictionary block takes its dictionary
// from dicts (nil: a private one). Every payload is copied out, so block is
// free for reuse once decodeColumn returns.
func decodeColumn(block []byte, rows int, dicts *dictSet) (*datum.Vec, error) {
	r := &byteReader{b: block}
	repr, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	kb, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	nu, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n := int(nu)
	if n != rows {
		return nil, fmt.Errorf("storage: column block has %d rows, segment has %d", n, rows)
	}
	if repr == reprBoxed {
		ds := make([]datum.D, n)
		for i := range ds {
			if ds[i], err = decodeD(r); err != nil {
				return nil, err
			}
		}
		return datum.NewBoxedVec(ds), nil
	}
	if repr == reprDict {
		return decodeDict(r, datum.Kind(kb), n, dicts)
	}
	if repr == reprRLE {
		return decodeRLE(r, datum.Kind(kb), n)
	}
	kind := datum.Kind(kb)
	nulls, numNulls, err := decodeNulls(r, n)
	if err != nil {
		return nil, err
	}
	switch kind {
	case datum.KindInt, datum.KindBool:
		ints := make([]int64, n)
		for i := range ints {
			if ints[i], err = r.varint(); err != nil {
				return nil, err
			}
		}
		return datum.NewTypedVec(kind, n, ints, nil, nil, nulls, numNulls), nil
	case datum.KindFloat:
		floats := make([]float64, n)
		for i := range floats {
			b, err := r.take(8)
			if err != nil {
				return nil, err
			}
			floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		return datum.NewTypedVec(kind, n, nil, floats, nil, nulls, numNulls), nil
	case datum.KindString:
		strs := make([]string, n)
		for i := range strs {
			ln, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			b, err := r.take(int(ln))
			if err != nil {
				return nil, err
			}
			strs[i] = string(b)
		}
		return datum.NewTypedVec(kind, n, nil, nil, strs, nulls, numNulls), nil
	case datum.KindNull:
		return datum.NewTypedVec(datum.KindNull, n, nil, nil, nil, nulls, numNulls), nil
	}
	return nil, fmt.Errorf("storage: unknown column kind byte %d", kb)
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

// decodeDict rebuilds a dictionary block into a dictionary-encoded Vec —
// the codes stay encoded all the way into the executor; only kernels that
// need the strings consult the dictionary. The sort order and code range are
// validated so a block that passes its CRC but was written wrong still
// surfaces as corruption, not as silent misreads. The dictionary's encoded
// bytes are checked and interned in dicts before any string is built: a
// dictionary seen before costs no allocation.
func decodeDict(r *byteReader, kind datum.Kind, n int, dicts *dictSet) (*datum.Vec, error) {
	if kind != datum.KindString {
		return nil, fmt.Errorf("storage: dictionary block with non-string kind byte %d", kind)
	}
	nulls, numNulls, err := decodeNulls(r, n)
	if err != nil {
		return nil, err
	}
	start := r.off
	dl, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	dictLen := int(dl)
	if dictLen <= 0 || dictLen > n {
		return nil, fmt.Errorf("storage: dictionary with %d entries in a %d-row block", dictLen, n)
	}
	if err := dictEntries(r, dictLen, nil); err != nil {
		return nil, err
	}
	dict := dicts.intern(r.b[start:r.off], func(enc []byte) *datum.StrDict {
		vals := make([]string, 0, dictLen)
		er := &byteReader{b: enc}
		// The bytes were checked above: neither read can fail.
		_, _ = er.uvarint()
		_ = dictEntries(er, dictLen, func(b []byte) { vals = append(vals, string(b)) })
		return &datum.StrDict{Vals: vals}
	})
	codes := make([]int64, n)
	for i := range codes {
		c, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if c >= uint64(dictLen) {
			return nil, fmt.Errorf("storage: row %d code %d exceeds dictionary of %d", i, c, dictLen)
		}
		codes[i] = int64(c)
	}
	return datum.NewDictVec(n, codes, dict, nulls, numNulls), nil
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

// decodeRLE expands a run-length block to the plain typed representation
// (run values share storage, so the expansion is cheap); the decoded vector
// is what the column cache holds, trading RLE's bytes-on-disk win for plain
// kernel speed in memory.
func decodeRLE(r *byteReader, kind datum.Kind, n int) (*datum.Vec, error) {
	nn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	numNulls := int(nn)
	ru, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	runs := int(ru)
	if runs <= 0 || runs > n {
		return nil, fmt.Errorf("storage: %d runs in a %d-row block", runs, n)
	}
	v := datum.NewVec(kind, n)
	total := 0
	for ri := 0; ri < runs; ri++ {
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		runLen := int(ln)
		if runLen <= 0 || total+runLen > n {
			return nil, fmt.Errorf("storage: run %d of length %d overflows %d-row block", ri, runLen, n)
		}
		d, err := decodeD(r)
		if err != nil {
			return nil, err
		}
		if !d.IsNull() && d.Kind() != kind {
			return nil, fmt.Errorf("storage: run %d value kind %d, want %d", ri, d.Kind(), kind)
		}
		for i := 0; i < runLen; i++ {
			v.AppendD(d)
		}
		total += runLen
	}
	if total != n {
		return nil, fmt.Errorf("storage: runs cover %d of %d rows", total, n)
	}
	if v.NumNulls() != numNulls {
		return nil, fmt.Errorf("storage: block declares %d NULLs, runs carry %d", numNulls, v.NumNulls())
	}
	return v, nil
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
// payload. It must be stable across processes (sketches are persisted), so it
// cannot use datum.Hash's per-process maphash seed. Numerics hash their
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

// readSegmentFooter opens a segment file and decodes its footer into a
// segMeta (startRow left to the caller). Corruption surfaces as a
// *CorruptError with the table/segment coordinates filled in.
func readSegmentFooter(path, table string, seg int) (segMeta, error) {
	var sm segMeta
	raw, err := os.ReadFile(path)
	if err != nil {
		return sm, err
	}
	sm, err = decodeFooter(raw, path)
	sm.fileCRC = crc32.Checksum(raw, crcTable)
	return sm, corruptAt(err, table, seg)
}

// corruptAt stamps table/segment coordinates onto a *CorruptError produced by
// a path-only decoder; any other error passes through untouched.
func corruptAt(err error, table string, seg int) error {
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Table, ce.Segment = table, seg
	}
	return err
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
	rows, err := r.uvarint()
	if err != nil {
		return fail(err)
	}
	ncols, err := r.uvarint()
	if err != nil {
		return fail(err)
	}
	sm.rows = int(rows)
	sm.bytes = int64(len(raw))
	sm.cols = make([]colMeta, ncols)
	for ci := range sm.cols {
		cm := &sm.cols[ci]
		if cm.repr, err = r.ReadByte(); err != nil {
			return fail(err)
		}
		kb, err := r.ReadByte()
		if err != nil {
			return fail(err)
		}
		cm.kind = datum.Kind(kb)
		off, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		blockLen, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		crcb, err := r.take(4)
		if err != nil {
			return fail(err)
		}
		cm.crc = binary.LittleEndian.Uint32(crcb)
		nullCount, err := r.uvarint()
		if err != nil {
			return fail(err)
		}
		cm.off, cm.blockLen, cm.nullCount = int64(off), int64(blockLen), int(nullCount)
		if cm.off < 0 || cm.blockLen < 0 || cm.off+cm.blockLen > int64(footerOff) {
			return bad(RegionFooter, int64(footerOff), "column %d block [%d,+%d) outside data area of %d bytes", ci, cm.off, cm.blockLen, footerOff)
		}
		hz, err := r.ReadByte()
		if err != nil {
			return fail(err)
		}
		if hz != 0 {
			cm.hasZone = true
			if cm.min, err = decodeD(r); err != nil {
				return fail(err)
			}
			if cm.max, err = decodeD(r); err != nil {
				return fail(err)
			}
			if magic != segMagic && (roundedBound(cm.min) || roundedBound(cm.max)) {
				cm.hasZone, cm.min, cm.max = false, datum.Null, datum.Null
			}
		}
		sk, err := r.take(sketchBytes)
		if err != nil {
			return fail(err)
		}
		copy(cm.sketch[:], sk)
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

// blockBufs recycles the raw block buffers of readColumnBlock: decodeColumn
// copies every payload out, so a buffer is dead once its block is decoded.
var blockBufs sync.Pool

// readColumnBlock reads, CRC-verifies and decodes one column block from a
// segment file, checking the fault streams and charging the bytes to sc.
// Verification runs on every call; the caller's column cache is what makes
// hot reads pay the checksum only once. verify=false (Options.
// DisableChecksums) is the benchmark A/B arm and the escape hatch for
// salvage reads. Dictionaries are interned in dicts.
func readColumnBlock(sc *ScanCtx, path string, sm *segMeta, ord int, table string, seg int, verify bool, dicts *dictSet) (*datum.Vec, error) {
	if err := sc.check("segment.open"); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := sc.check("segment.read"); err != nil {
		return nil, err
	}
	cm := &sm.cols[ord]
	buf, _ := blockBufs.Get().(*[]byte)
	if buf == nil || int64(cap(*buf)) < cm.blockLen {
		buf = new([]byte)
		*buf = make([]byte, cm.blockLen)
	}
	defer blockBufs.Put(buf)
	block := (*buf)[:cm.blockLen]
	if _, err := f.ReadAt(block, cm.off); err != nil {
		return nil, fmt.Errorf("storage: reading %s column %d: %w", path, ord, err)
	}
	sc.addBytes(cm.blockLen)
	blockErr := func(format string, a ...any) error {
		return &CorruptError{Table: table, Segment: seg, Path: path, Region: RegionBlock,
			Column: ord, Offset: cm.off, Detail: fmt.Sprintf(format, a...)}
	}
	if verify {
		if got := crc32.Checksum(block, crcTable); got != cm.crc {
			return nil, blockErr("block checksum %08x, want %08x", got, cm.crc)
		}
	}
	v, err := decodeColumn(block, sm.rows, dicts)
	if err != nil {
		return nil, blockErr("block decode: %v", err)
	}
	sc.addBlock(cm.repr)
	return v, nil
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

// --- decoded-column cache ---

// colKey identifies one decoded column block: table identity, rewrite
// generation (SortBy bumps it), segment and column ordinal.
type colKey struct {
	tab *Table
	gen int
	seg int
	ord int
}

type colEntry struct {
	key   colKey
	vec   *datum.Vec
	bytes int64
}

// colCache is the store-wide LRU of decoded column vectors, bounded by a byte
// budget. Cached vectors are shared read-only; everyone copies out of them
// via AppendRange/D, never mutates.
type colCache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	lru    *list.List // front = most recently used; values are *colEntry
	m      map[colKey]*list.Element
}

func newColCache(budget int64) *colCache {
	return &colCache{budget: budget, lru: list.New(), m: make(map[colKey]*list.Element)}
}

func (c *colCache) get(k colKey) *datum.Vec {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*colEntry).vec
}

func (c *colCache) put(k colKey, v *datum.Vec, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return // a concurrent reader decoded it first; keep theirs
	}
	el := c.lru.PushFront(&colEntry{key: k, vec: v, bytes: bytes})
	c.m[k] = el
	c.size += bytes
	for c.size > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*colEntry)
		c.lru.Remove(back)
		delete(c.m, e.key)
		c.size -= e.bytes
	}
}

// dropTable evicts every cached column of one table (table drop/rewrite).
func (c *colCache) dropTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*colEntry)
		if e.key.tab == t {
			c.lru.Remove(el)
			delete(c.m, e.key)
			c.size -= e.bytes
		}
		el = next
	}
}
