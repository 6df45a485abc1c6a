// Scrub: full offline verification of segment files — every magic, footer
// CRC, block CRC and block decode, plus the manifest's whole-file checksum.
// Reads raw file bytes, never the block cache, so it finds damage that
// happened after adoption. Two entry points: Store.Scrub for a live store,
// ScrubDir for a storage directory without a catalog (qopt -scrub).
package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Scrub verifies every sealed segment file of every table and returns one
// error per corruption found, with coordinates. An empty result means the
// store's on-disk state is fully intact. Stores without a directory have no
// files and scrub to nothing.
func (s *Store) Scrub() []*CorruptError {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for k := range s.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	tables := make([]*Table, len(names))
	for i, k := range names {
		tables[i] = s.tables[k]
	}
	s.mu.RUnlock()
	var out []*CorruptError
	for _, t := range tables {
		out = append(out, t.Scrub()...)
	}
	return out
}

// Scrub verifies this table's sealed segment files.
func (t *Table) Scrub() []*CorruptError {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*CorruptError
	for si := range t.seg.segs {
		sm := &t.seg.segs[si]
		if sm.pinned != nil {
			continue // no file to verify
		}
		if sm.corrupt != nil {
			out = append(out, sm.corrupt)
			continue
		}
		out = append(out, scrubFile(t.segPath(sm.id), t.Def.Name, sm.id, sm.bytes, sm.fileCRC)...)
	}
	return out
}

// scrubFile fully verifies one segment file against its adopted size and
// whole-file CRC: footer (magic, CRC, decodability), then every block's CRC
// and decode. Multiple block corruptions in one file all get reported.
func scrubFile(path, table string, seg int, wantBytes int64, wantCRC uint32) []*CorruptError {
	one := func(ce *CorruptError) []*CorruptError {
		ce.Table, ce.Segment = table, seg
		return []*CorruptError{ce}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return one(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("unreadable: %v", err)})
	}
	if wantBytes > 0 && int64(len(raw)) != wantBytes {
		return one(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("file is %d bytes, adopted at %d", len(raw), wantBytes)})
	}
	sm, derr := decodeFooter(raw, path)
	if derr != nil {
		if ce, ok := derr.(*CorruptError); ok {
			return one(ce)
		}
		return one(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1, Detail: derr.Error()})
	}
	var out []*CorruptError
	add := func(ce *CorruptError) {
		ce.Table, ce.Segment = table, seg
		out = append(out, ce)
	}
	for ci := range sm.cols {
		cm := &sm.cols[ci]
		block := raw[cm.off : cm.off+cm.blockLen]
		if got := crc32.Checksum(block, crcTable); got != cm.crc {
			add(&CorruptError{Path: path, Region: RegionBlock, Column: ci, Offset: cm.off,
				Detail: fmt.Sprintf("block checksum %08x, want %08x", got, cm.crc)})
			continue
		}
		if _, err := decodeBlock(block, sm.rows, nil); err != nil {
			add(&CorruptError{Path: path, Region: RegionBlock, Column: ci, Offset: cm.off,
				Detail: fmt.Sprintf("block decode: %v", err)})
		}
	}
	if len(out) == 0 && wantCRC != 0 {
		if got := crc32.Checksum(raw, crcTable); got != wantCRC {
			add(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
				Detail: fmt.Sprintf("file checksum %08x, adopted at %08x", got, wantCRC)})
		}
	}
	return out
}

// ScrubDir verifies a storage directory without needing the catalog: every
// subdirectory holding a MANIFEST is treated as a table, its manifest
// replayed (read-only — torn tails are reported, not repaired) and every
// listed segment fully checked. The tool entry point behind qopt -scrub.
func ScrubDir(dir string) ([]*CorruptError, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*CorruptError
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		table := de.Name()
		tdir := filepath.Join(dir, table)
		mpath := filepath.Join(tdir, manifestName)
		if _, err := os.Stat(mpath); err != nil {
			continue // not a table directory
		}
		ms, truncated, err := replayManifest(mpath, false)
		if err != nil {
			out = append(out, &CorruptError{Table: table, Segment: -1, Path: mpath,
				Region: RegionFile, Column: -1, Offset: -1, Detail: err.Error()})
			continue
		}
		if truncated > 0 {
			out = append(out, &CorruptError{Table: table, Segment: -1, Path: mpath,
				Region: RegionFile, Column: -1, Offset: -1,
				Detail: fmt.Sprintf("manifest has a %d-byte torn tail (will be truncated at next open)", truncated)})
		}
		for _, e := range ms.entries {
			out = append(out, scrubFile(filepath.Join(tdir, e.file), table, e.id, e.bytes, e.crc)...)
		}
	}
	return out, nil
}
