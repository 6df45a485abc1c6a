// Recovery: opening a disk-backed table replays its manifest and reconciles
// the directory against it. Manifest-listed segments are verified (size,
// whole-file CRC, footer, per-block CRCs — the file bytes are already in hand
// for the footer read, so full verification costs one CRC pass, and the
// recovery benchmark measures exactly this); files the manifest never adopted
// (a crash between rename and manifest append, or leftover temp files) are
// quarantined into lost/ rather than deleted. A listed segment that fails
// verification is soft-adopted: its row count comes from the manifest so the
// table's positional row-id space is preserved and unaffected segments keep
// serving, but any read of it returns the typed corruption.
package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// RecoveryReport describes what opening one disk-backed table found.
type RecoveryReport struct {
	// Table is the table name.
	Table string
	// Segments and Rows are the adopted totals (corrupt segments included —
	// they still occupy their row range).
	Segments int
	Rows     int
	// Quarantined lists file names moved into the table's lost/ directory:
	// segment or temp files present on disk but never published by the
	// manifest — the residue of a crash before the commit record.
	Quarantined []string
	// TruncatedManifestBytes is the size of the torn manifest tail discarded
	// during replay (a crash mid-append), 0 for a clean manifest.
	TruncatedManifestBytes int64
	// Corrupt holds one error per manifest-listed segment that failed
	// verification and was soft-adopted.
	Corrupt []*CorruptError
}

// Clean reports whether recovery found nothing abnormal.
func (r *RecoveryReport) Clean() bool {
	return len(r.Quarantined) == 0 && r.TruncatedManifestBytes == 0 && len(r.Corrupt) == 0
}

// recoverLocked replays the table's manifest into t.seg and reconciles the
// directory. Caller holds t.mu (or owns t exclusively during CreateTable).
func (t *Table) recoverLocked() (*RecoveryReport, error) {
	dir := t.seg.dir
	ms, truncated, err := replayManifest(filepath.Join(dir, manifestName), true)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Table: t.Def.Name, TruncatedManifestBytes: truncated}
	referenced := map[string]bool{manifestName: true}
	maxID := -1
	for _, e := range ms.entries {
		referenced[e.file] = true
		sm, cerr := t.verifyEntry(e)
		sm.startRow = t.seg.sealedRows
		if cerr != nil {
			rep.Corrupt = append(rep.Corrupt, cerr)
		}
		t.seg.segs = append(t.seg.segs, sm)
		t.seg.sealedRows += sm.rows
		t.seg.sealedBytes += sm.bytes
		if e.id > maxID {
			maxID = e.id
		}
	}
	t.seg.gen = ms.gen
	t.seg.nextID = maxID + 1
	rep.Segments = len(t.seg.segs)
	rep.Rows = t.seg.sealedRows
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || referenced[name] {
			continue
		}
		if !strings.HasSuffix(name, ".seg") && !strings.HasSuffix(name, ".tmp") {
			continue
		}
		lost := filepath.Join(dir, "lost")
		if err := os.MkdirAll(lost, 0o755); err != nil {
			return nil, err
		}
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(lost, name)); err != nil {
			return nil, err
		}
		rep.Quarantined = append(rep.Quarantined, name)
	}
	return rep, nil
}

// verifyEntry fully checks one manifest-listed segment file. On success the
// returned segMeta is ready to adopt; on any failure it is the soft-adopt
// placeholder (row count and size taken from the manifest) and the
// corruption is returned alongside.
func (t *Table) verifyEntry(e manEntry) (segMeta, *CorruptError) {
	path := filepath.Join(t.seg.dir, e.file)
	soft := func(ce *CorruptError) (segMeta, *CorruptError) {
		ce.Table, ce.Segment = t.Def.Name, e.id
		return segMeta{id: e.id, rows: e.rows, bytes: e.bytes, fileCRC: e.crc, corrupt: ce}, ce
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return soft(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("manifest-listed file unreadable: %v", err)})
	}
	if int64(len(raw)) != e.bytes {
		return soft(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("file is %d bytes, manifest recorded %d", len(raw), e.bytes)})
	}
	sm, derr := decodeFooter(raw, path)
	if derr != nil {
		if ce, ok := derr.(*CorruptError); ok {
			return soft(ce)
		}
		return soft(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1, Detail: derr.Error()})
	}
	if sm.rows != e.rows {
		return soft(&CorruptError{Path: path, Region: RegionFooter, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("footer says %d rows, manifest recorded %d", sm.rows, e.rows)})
	}
	if len(sm.cols) != len(t.Def.Cols) {
		return soft(&CorruptError{Path: path, Region: RegionFooter, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("segment has %d columns, table %s has %d", len(sm.cols), t.Def.Name, len(t.Def.Cols))})
	}
	if got := crc32.Checksum(raw, crcTable); got != e.crc {
		// The footer survived, so the damage is in a block — localize it.
		for ci := range sm.cols {
			cm := &sm.cols[ci]
			if bcrc := crc32.Checksum(raw[cm.off:cm.off+cm.blockLen], crcTable); bcrc != cm.crc {
				return soft(&CorruptError{Path: path, Region: RegionBlock, Column: ci, Offset: cm.off,
					Detail: fmt.Sprintf("block checksum %08x, want %08x", bcrc, cm.crc)})
			}
		}
		return soft(&CorruptError{Path: path, Region: RegionFile, Column: -1, Offset: -1,
			Detail: fmt.Sprintf("file checksum %08x, manifest recorded %08x", got, e.crc)})
	}
	sm.id = e.id
	sm.fileCRC = e.crc
	return sm, nil
}

// Recovery returns the recovery reports accumulated by CreateTable since the
// store was opened, one per disk-backed table, in creation order.
func (s *Store) Recovery() []*RecoveryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*RecoveryReport, len(s.recovery))
	copy(out, s.recovery)
	return out
}
