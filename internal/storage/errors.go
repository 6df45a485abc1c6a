// Typed integrity errors of the storage layer. Every detected corruption —
// at recovery, on a block read through the block cache, or during a Scrub
// walk — surfaces as a *CorruptError carrying exact coordinates (table,
// segment, region, column), and matches ErrSegmentCorrupt under errors.Is so
// callers can distinguish "the bytes are wrong" from transient I/O failures.
package storage

import (
	"errors"
	"fmt"
)

// ErrSegmentCorrupt is the errors.Is target for every detected segment
// corruption (bad magic, footer or block checksum mismatch, truncated or
// undecodable data, manifest/footer disagreement).
var ErrSegmentCorrupt = errors.New("storage: segment corrupt")

// ErrManifestCorrupt is the errors.Is target for manifest damage beyond the
// torn-tail residue a crash legitimately leaves (which recovery silently
// truncates): records in the interior that fail their CRC frame.
var ErrManifestCorrupt = errors.New("storage: manifest corrupt")

// Corruption regions, from coarsest to finest. Scrub localizes every
// mismatch to one of these.
const (
	// RegionMagic: the 8-byte format tag at the end of the file is wrong —
	// not a segment file, or a flip landed in the trailer.
	RegionMagic = "magic"
	// RegionFooter: the footer failed its CRC or cannot be decoded (covers
	// zone maps, NULL counts, sketches and block offsets, which all live in
	// the footer).
	RegionFooter = "footer"
	// RegionBlock: one column block failed its CRC or cannot be decoded
	// (covers typed payloads, packed NULL bitmaps and boxed datums). Column
	// carries the ordinal.
	RegionBlock = "block"
	// RegionFile: the file is missing, unreadable, or disagrees with the
	// manifest (size or whole-file CRC) without a finer region to blame.
	RegionFile = "file"
)

// CorruptError reports one detected corruption with coordinates.
type CorruptError struct {
	// Table is the owning table name.
	Table string
	// Segment is the segment id within the table's current generation.
	Segment int
	// Path is the segment file path.
	Path string
	// Region classifies where the damage was detected (RegionMagic,
	// RegionFooter, RegionBlock, RegionFile).
	Region string
	// Column is the column ordinal for RegionBlock, -1 otherwise.
	Column int
	// Offset is the byte offset of the damaged region's start within the
	// file, -1 when unknown.
	Offset int64
	// Detail is a human-readable description of the mismatch.
	Detail string
}

func (e *CorruptError) Error() string {
	if e.Region == RegionBlock {
		return fmt.Sprintf("storage: segment corrupt: table %s segment %d column %d (%s, offset %d): %s",
			e.Table, e.Segment, e.Column, e.Region, e.Offset, e.Detail)
	}
	return fmt.Sprintf("storage: segment corrupt: table %s segment %d (%s, offset %d): %s",
		e.Table, e.Segment, e.Region, e.Offset, e.Detail)
}

// Is makes every CorruptError match ErrSegmentCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrSegmentCorrupt }
